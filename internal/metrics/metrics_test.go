package metrics

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

var testBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120}

// metricValue extracts one integer sample from an exposition.
func metricValue(t *testing.T, exposition, sample string) int {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			var v int
			if _, err := fmt.Sscanf(line[len(sample)+1:], "%d", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("sample %q missing from exposition:\n%s", sample, exposition)
	return 0
}

// TestHistogramBucketBoundaries pins which bucket an observation on an
// exact upper bound lands in: Prometheus buckets are le (inclusive upper),
// so a duration equal to a bound must count in that bound's bucket, and
// anything past the last bound goes to +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		seconds float64
		bucket  int // expected index into counts
	}{
		{0, 0},
		{0.0005, 0},
		{0.001, 0},  // exactly the first bound: inclusive
		{0.0011, 1}, // just past it
		{0.005, 1},
		{0.01, 2},
		{0.05, 3},
		{0.1, 4},
		{0.5, 5},
		{1, 6},
		{5, 7},
		{10, 8},
		{30, 9},
		{60, 10},
		{120, 11},                    // exactly the last finite bound
		{120.0001, len(testBuckets)}, // overflow bucket
		{3600, len(testBuckets)},     // way past the end
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%gs", c.seconds), func(t *testing.T) {
			h := New().Histogram("h_seconds", "test", testBuckets)
			h.Observe(c.seconds)
			s := h.f.series[""]
			for i, n := range s.counts {
				want := uint64(0)
				if i == c.bucket {
					want = 1
				}
				if n != want {
					t.Errorf("bucket %d count = %d, want %d", i, n, want)
				}
			}
			if s.n != 1 || s.sum != c.seconds {
				t.Errorf("n=%d sum=%g, want 1 and %g", s.n, s.sum, c.seconds)
			}
		})
	}
}

// TestHistogramExpositionCumulative checks the rendered histogram is
// cumulative and consistent: each le series includes every faster
// observation, +Inf equals the count, and the sum is exact.
func TestHistogramExpositionCumulative(t *testing.T) {
	reg := New()
	h := reg.Histogram("pathfinderd_job_duration_seconds", "wall time per finished job", testBuckets, "experiment")
	durations := []time.Duration{
		500 * time.Microsecond, // bucket le=0.001
		time.Millisecond,       // le=0.001 (boundary)
		3 * time.Millisecond,   // le=0.005
		2 * time.Second,        // le=5
		10 * time.Minute,       // +Inf
	}
	for _, d := range durations {
		h.Observe(d.Seconds(), "obs2")
	}
	exp := reg.Expose()

	bucket := func(le string) int {
		return metricValue(t, exp, fmt.Sprintf(`pathfinderd_job_duration_seconds_bucket{experiment="obs2",le="%s"}`, le))
	}
	for _, c := range []struct {
		le   string
		want int
	}{
		{"0.001", 2}, {"0.005", 3}, {"0.01", 3}, {"1", 3}, {"5", 4}, {"120", 4}, {"+Inf", 5},
	} {
		if got := bucket(c.le); got != c.want {
			t.Errorf("bucket le=%s = %d, want %d", c.le, got, c.want)
		}
	}
	if n := metricValue(t, exp, `pathfinderd_job_duration_seconds_count{experiment="obs2"}`); n != 5 {
		t.Errorf("count = %d, want 5", n)
	}
	if !strings.Contains(exp, `pathfinderd_job_duration_seconds_sum{experiment="obs2"} 602.0045`+"\n") {
		t.Errorf("sum not rendered exactly:\n%s", exp)
	}
	// Bounds must render Prometheus-style: no trailing zeros, ints bare.
	for _, want := range []string{`le="0.001"`, `le="0.5"`, `le="1"`, `le="120"`} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if strings.Contains(exp, `le="1.000000"`) || strings.Contains(exp, `le="5e`) {
		t.Error("bucket bounds rendered in a non-Prometheus format")
	}
}

// TestCounterRendersIntegers: a counter renders as an integer at any size,
// never in float notation.
func TestCounterRendersIntegers(t *testing.T) {
	reg := New()
	reg.Counter("events_total", "events").Add(12345678)
	exp := reg.Expose()
	if got := metricValue(t, exp, "events_total"); got != 12345678 {
		t.Errorf("events_total = %d, want 12345678", got)
	}
	if strings.Contains(exp, "e+07") {
		t.Errorf("counter rendered in float notation:\n%s", exp)
	}
}

// TestExposeLayout pins the exposition layout: families in registration
// order, headers only for families with series, stored series sorted by
// label value with Order ranks first, sampled series in emit order.
func TestExposeLayout(t *testing.T) {
	reg := New()
	reg.GaugeFunc("depth", "queue depth", nil, func(emit Emit) { emit(3) })
	reg.CounterFunc("absent_total", "renders nothing", []string{"op"}, func(Emit) {})
	done := reg.Counter("done_total", "by experiment and state", "experiment", "state").Order("state", "done", "failed")
	done.Add(1, "b", "failed")
	done.Add(2, "b", "done")
	done.Add(1, "a", "cancelled")
	done.Add(1, "a", "done")
	reg.Counter("idle_total", "labelled, never touched", "experiment")
	reg.FixedCounter("outcome_total", "fixed outcomes", "outcome", "win", "loss").Add(4, "loss")
	reg.CounterFunc("sampled_total", "emit order", []string{"result"}, func(emit Emit) {
		emit(7, "miss")
		emit(5, "hit")
	})

	want := `# HELP depth queue depth
# TYPE depth gauge
depth 3
# HELP done_total by experiment and state
# TYPE done_total counter
done_total{experiment="a",state="done"} 1
done_total{experiment="a",state="cancelled"} 1
done_total{experiment="b",state="done"} 2
done_total{experiment="b",state="failed"} 1
# HELP outcome_total fixed outcomes
# TYPE outcome_total counter
outcome_total{outcome="win"} 0
outcome_total{outcome="loss"} 4
# HELP sampled_total emit order
# TYPE sampled_total counter
sampled_total{result="miss"} 7
sampled_total{result="hit"} 5
`
	if got := reg.Expose(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	// Registering a name twice returns the first family.
	reg.Counter("done_total", "ignored", "experiment", "state").Add(1, "a", "done")
	if got := metricValue(t, reg.Expose(), `done_total{experiment="a",state="done"}`); got != 2 {
		t.Errorf("re-registered family count = %d, want 2", got)
	}
}

// TestConcurrentUpdatesAndScrapes updates stored families from several
// goroutines, each also re-registering shared families (as two workers on
// one service do), while scrapes run; under -race it checks the locking,
// and the final scrape must account for every update.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	reg := New()
	c := reg.Counter("ops_total", "ops by worker", "worker")
	h := reg.Histogram("op_seconds", "op latency", testBuckets, "worker")
	reg.GaugeFunc("live", "constant", nil, func(emit Emit) { emit(1) })
	const workers, ops = 4, 500
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(name string) {
			defer func() { done <- struct{}{} }()
			shared := reg.FixedCounter("outcome_total", "shared", "outcome", "win", "loss")
			plain := reg.Counter("plain_total", "shared, label-less")
			for i := 0; i < ops; i++ {
				c.Add(1, name)
				h.Observe(0.002, name)
				shared.Add(1, "win")
				plain.Add(1)
				if i%100 == 0 {
					_ = reg.Expose()
				}
			}
		}(fmt.Sprintf("w%d", w))
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	exp := reg.Expose()
	for _, sample := range []string{`outcome_total{outcome="win"}`, "plain_total"} {
		if got := metricValue(t, exp, sample); got != workers*ops {
			t.Errorf("%s = %d, want %d", sample, got, workers*ops)
		}
	}
	for w := 0; w < workers; w++ {
		if got := metricValue(t, exp, fmt.Sprintf(`ops_total{worker="w%d"}`, w)); got != ops {
			t.Errorf("worker w%d ops = %d, want %d", w, got, ops)
		}
		if got := metricValue(t, exp, fmt.Sprintf(`op_seconds_count{worker="w%d"}`, w)); got != ops {
			t.Errorf("worker w%d observations = %d, want %d", w, got, ops)
		}
	}
}
