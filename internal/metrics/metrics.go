// Package metrics is pathfinderd's one Prometheus registry. Owners register
// labelled counter and histogram families and update them as events happen,
// or register families sampled from their live state at scrape time (queue
// depths, job-state gauges, process-global harness counters). The registry
// renders the Prometheus text exposition format, stdlib only.
package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds metric families and renders them in registration order.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Emit reports one series of a sampled family: its value and its label
// values, in the family's label order.
type Emit func(v uint64, labelValues ...string)

type family struct {
	name, help, typ string
	labels          []string
	buckets         []float64        // histogram upper bounds; nil otherwise
	les             []string         // histogram: the buckets' le label values, +Inf last
	sample          func(Emit)       // sampled families only
	rank            []map[string]int // per label: Order's value ranks, nil sorts by name

	mu     sync.Mutex
	series map[string]*series
}

// series is one label-value tuple's state: a counter's value, or a
// histogram's per-bucket counts (+Inf last), observation count and sum.
type series struct {
	values []string
	n      uint64
	counts []uint64
	sum    float64
}

// register returns the family called name, creating it. A second
// registration of a name returns the first one, so two owners of the same
// family (two cluster workers wrapping one service) share its series.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64, sample func(Emit)) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if f.name == name {
			return f
		}
	}
	f := &family{
		name: name, help: help, typ: typ, labels: labels, buckets: buckets, sample: sample,
		rank: make([]map[string]int, len(labels)), series: make(map[string]*series),
	}
	if buckets != nil {
		for _, ub := range buckets {
			f.les = append(f.les, strconv.FormatFloat(ub, 'f', -1, 64))
		}
		f.les = append(f.les, "+Inf")
	}
	r.families = append(r.families, f)
	return f
}

// Counter is a family of monotonic counters, one per label-value tuple.
type Counter struct{ f *family }

// Counter registers a counter family. A family without labels has its one
// series from the start, so it renders 0 before the first Add.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{r.register(name, help, "counter", labels, nil, nil)}
	if len(labels) == 0 {
		c.Add(0)
	}
	return c
}

// Add adds n to the series with the given label values, creating it; Add(0,
// ...) makes a series render before its first event.
func (c *Counter) Add(n uint64, labelValues ...string) {
	c.f.mu.Lock()
	c.f.get(labelValues).n += n
	c.f.mu.Unlock()
}

// Order renders the listed values of label first, in the given order;
// other values follow by name. Without it a label's values render by name.
func (c *Counter) Order(label string, values ...string) *Counter {
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	for i, l := range c.f.labels {
		if l == label {
			c.f.rank[i] = make(map[string]int, len(values))
			for k, v := range values {
				c.f.rank[i][v] = k
			}
		}
	}
	return c
}

// FixedCounter registers a counter family over one label with a fixed set
// of values, all of which render from the start, in the given order.
func (r *Registry) FixedCounter(name, help, label string, values ...string) *Counter {
	c := r.Counter(name, help, label).Order(label, values...)
	for _, v := range values {
		c.Add(0, v)
	}
	return c
}

// Histogram is a family of fixed-bucket histograms.
type Histogram struct{ f *family }

// Histogram registers a histogram family with the given ascending bucket
// upper bounds; an observation equal to a bound counts in that bucket.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	return &Histogram{r.register(name, help, "histogram", labels, buckets, nil)}
}

// Observe records one observation in the series with the given label values.
func (h *Histogram) Observe(v float64, labelValues ...string) {
	h.f.mu.Lock()
	s := h.f.get(labelValues)
	s.counts[sort.SearchFloat64s(h.f.buckets, v)]++
	s.sum += v
	s.n++
	h.f.mu.Unlock()
}

// GaugeFunc registers a gauge family sampled at scrape time: sample calls
// emit once per series, in the order the series should render.
func (r *Registry) GaugeFunc(name, help string, labels []string, sample func(Emit)) {
	r.register(name, help, "gauge", labels, nil, sample)
}

// CounterFunc registers a counter family sampled at scrape time, for
// counters another package keeps.
func (r *Registry) CounterFunc(name, help string, labels []string, sample func(Emit)) {
	r.register(name, help, "counter", labels, nil, sample)
}

// get returns the series for the label values, creating it. Caller holds
// f.mu.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	s := f.series[key]
	if s == nil {
		s = &series{values: append([]string(nil), values...)}
		if f.buckets != nil {
			s.counts = make([]uint64, len(f.buckets)+1)
		}
		f.series[key] = s
	}
	return s
}

// less orders stored series label by label: ranked values first, then by
// name.
func (f *family) less(a, b *series) bool {
	for i, rank := range f.rank {
		x, y := a.values[i], b.values[i]
		if x == y {
			continue
		}
		rx, okx := rank[x]
		ry, oky := rank[y]
		switch {
		case okx && oky:
			return rx < ry
		case okx != oky:
			return okx
		}
		return x < y
	}
	return false
}

// Expose renders every family that has at least one series, in
// registration order, as Prometheus text. Stored series render sorted;
// sampled ones in the order their sampler emits them. Samplers run with no
// registry lock held, so they may take their owner's locks.
func (r *Registry) Expose() string {
	r.mu.Lock()
	families := r.families
	r.mu.Unlock()
	var b []byte
	for _, f := range families {
		b = f.appendTo(b)
	}
	return string(b)
}

// ServeHTTP answers a scrape.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, r.Expose())
}

// appendTo renders the family; a family without series renders nothing.
func (f *family) appendTo(b []byte) []byte {
	var list []*series
	if f.sample != nil {
		f.sample(func(v uint64, values ...string) {
			list = append(list, &series{values: values, n: v})
		})
	} else {
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, s := range f.series {
			list = append(list, s)
		}
		sort.Slice(list, func(i, k int) bool { return f.less(list[i], list[k]) })
	}
	if len(list) == 0 {
		return b
	}
	b = append(b, "# HELP "+f.name+" "+f.help+"\n# TYPE "+f.name+" "+f.typ+"\n"...)
	if f.buckets == nil {
		for _, s := range list {
			b = appendSample(b, f.name, f.labels, s.values, s.n)
		}
		return b
	}
	bucket, sum, count := f.name+"_bucket", f.name+"_sum", f.name+"_count"
	labels := append(f.labels[:len(f.labels):len(f.labels)], "le")
	for _, s := range list {
		values := append(s.values[:len(s.values):len(s.values)], "")
		cum := uint64(0)
		for i, n := range s.counts {
			cum += n
			values[len(values)-1] = f.les[i]
			b = appendSample(b, bucket, labels, values, cum)
		}
		b = appendSeries(b, sum, f.labels, s.values)
		b = strconv.AppendFloat(b, s.sum, 'g', -1, 64)
		b = append(b, '\n')
		b = appendSample(b, count, f.labels, s.values, s.n)
	}
	return b
}

// appendSample appends one integer sample line.
func appendSample(b []byte, name string, labels, values []string, v uint64) []byte {
	b = appendSeries(b, name, labels, values)
	b = strconv.AppendUint(b, v, 10)
	return append(b, '\n')
}

// appendSeries appends `name{label="value",...} `.
func appendSeries(b []byte, name string, labels, values []string) []byte {
	b = append(b, name...)
	if len(labels) > 0 {
		b = append(b, '{')
		for i, l := range labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, l...)
			b = append(b, '=')
			b = strconv.AppendQuote(b, values[i])
		}
		b = append(b, '}')
	}
	return append(b, ' ')
}
