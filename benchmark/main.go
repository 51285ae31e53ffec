// Command benchmark is the repository's end-to-end benchmark. It runs one
// closed-loop workload against the code under test, checks every output, and
// prints every metric by name and unit, ending with one JSON result line:
//
//	benchmark -workload aes-eval -seed 1 -seconds 30 -trace 0
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced run
// (-trace 1) of the same seed repeats the same ops under a CPU profile and
// reports the per-layer metrics instead. README.md describes the workloads,
// the metrics and how to run it; run.sh builds everything from source first.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// config is one benchmark invocation.
type config struct {
	seed    int64
	seconds int
	trace   bool
	daemon  string // pathfinderd binary, for aes-eval
	work    string // directory this run may write its data under
}

// measurement is what a workload hands back; run turns it into metrics.
type measurement struct {
	setup     []time.Duration // every set-up repetition
	latencies []time.Duration // every finished op
	elapsed   time.Duration   // from the first op's start to the last op's end
	cpu       time.Duration   // user+system CPU of the process under test during the ops
	rss       []float64       // peak RSS in MB of each op, or of each sampling window for the daemon
	accuracy  float64         // attack accuracy over a fixed prefix of the seed's ops
	failed    int             // ops that errored or failed their correctness check
	diskMB    float64         // what the workload leaves on disk: journal plus store
	layers    map[string]float64
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A workload runs its set-up and ops and measures them.
type workload func(ctx context.Context, cfg config) (*measurement, error)

var workloads = map[string]workload{
	"aes-eval":       runAESEval,
	"image-recovery": runImageRecovery,
	"grid-restart":   runGridRestart,
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "aes-eval | image-recovery | grid-restart")
	seed := fs.Int64("seed", 1, "workload seed; every op's inputs derive from it")
	seconds := fs.Int("seconds", 30, "how long the run measures")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	daemon := fs.String("daemon", "", "pathfinderd binary (aes-eval)")
	work := fs.String("work", ".bench_build/run", "directory for run data")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	switch {
	case !ok:
		return fmt.Errorf("unknown -workload %q", *name)
	case *seconds < 1:
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case runtime.GOMAXPROCS(0) < runtime.NumCPU():
		// A run at reduced GOMAXPROCS measures a different program: the
		// daemon's pool and the GC both size themselves from it.
		return fmt.Errorf("GOMAXPROCS=%d is below nproc=%d; unset GOMAXPROCS", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	workDir, err := filepath.Abs(*work)
	if err != nil {
		return err
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, daemon: *daemon,
		work: filepath.Join(workDir, fmt.Sprintf("%s-%d", *name, os.Getpid()))}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)

	h := readHost()
	h.LoadStart = loadavg()
	m, err := w(ctx, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	h.LoadEnd = loadavg()
	if len(m.latencies) == 0 {
		return errors.New(*name + ": no op finished")
	}

	res := result{
		Correct:   m.failed == 0,
		Attempted: len(m.latencies),
		Failed:    m.failed,
		Metrics:   endToEnd(m),
	}
	if cfg.trace {
		res.Metrics = perLayer(m)
	}
	hj, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "host %s\n", hj)
	// error_rate and disk_mb are end-to-end figures too, but each reads 0 on
	// some workload, so they are printed here rather than in the result line.
	fmt.Fprintf(out, "workload %s seed %d seconds %d trace %d: %d ops, %d failed, error_rate %.4f, disk_mb %.4f MB\n",
		*name, *seed, *seconds, *trace, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), m.diskMB)
	if !cfg.trace {
		p := tailPercentile(res.Attempted)
		fmt.Fprintf(out, "op latency: %d samples; highest percentile with ten samples beyond it: p%d\n", res.Attempted, p)
		fmt.Fprintf(out, "set-up: %d repetitions %v\n", len(m.setup), m.setup)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", rj)
	return nil
}

// endToEnd computes the metrics a user of the system sees, from an untraced
// run.
func endToEnd(m *measurement) map[string]metric {
	lat := make([]float64, len(m.latencies))
	for i, d := range m.latencies {
		lat[i] = ms(d)
	}
	setup := make([]float64, len(m.setup))
	for i, d := range m.setup {
		setup[i] = d.Seconds()
	}
	n := len(m.latencies)
	return map[string]metric{
		"ops_per_s":       {finite(float64(n) / m.elapsed.Seconds()), "1/s"},
		"op_p50_ms":       {percentile(lat, 50), "ms"},
		"op_p90_ms":       {percentile(lat, 90), "ms"},
		"cpu_s_per_op":    {perOp(m.cpu.Seconds(), n), "s"},
		"rss_mb":          {percentile(m.rss, 50), "MB"},
		"setup_s":         {percentile(setup, 50), "s"},
		"attack_accuracy": {m.accuracy, "fraction"},
	}
}

// perLayer returns the traced run's per-layer metrics: the workload's own
// layer metrics plus its throughput under tracing, which set beside the
// untraced ops_per_s is the tracing overhead.
func perLayer(m *measurement) map[string]metric {
	out := map[string]metric{
		"bench.traced_ops_per_s": {finite(float64(len(m.latencies)) / m.elapsed.Seconds()), "1/s"},
	}
	for _, l := range layerMetrics {
		out[l.name] = metric{finite(m.layers[l.name]), l.unit}
	}
	return out
}

// layerMetrics lists every per-layer metric a traced run reports, on every
// workload; a layer a workload does not reach reads 0.
var layerMetrics = func() []struct{ name, unit string } {
	var l []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			l = append(l, struct{ name, unit string }{n, unit})
		}
	}
	for _, mod := range profiledModules {
		add("ms", mod+".cpu_ms_per_op")
	}
	add("fraction", "runtime.no_repo_frame_frac", "runtime.gc_cpu_frac")
	add("ms", "snapstore.load_ms_per_op", "snapstore.save_ms_per_op",
		"service.queue_wait_ms", "service.run_ms", "service.client_ms")
	add("count", "snapstore.loads_per_op", "snapstore.saves_per_op",
		"cpu.instructions_per_op", "cpu.cycles_per_op", "cpu.runs_per_op", "cpu.transient_instrs_per_op",
		"bpu.cond_branches_per_op", "bpu.mispredicts_per_op",
		"harness.warm_hits_per_op", "harness.warm_misses_per_op", "harness.shared_cells_per_op",
		"harness.prefetch_hits_per_op", "snapstore.hits_per_op", "snapstore.misses_per_op",
		"runtime.gc_cycles_per_op", "runtime.page_faults_per_op")
	add("MB", "snapstore.mb", "runtime.alloc_mb_per_op")
	add("KB", "service.journal_kb_per_op")
	return l
}()

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-th percentile (0..100) of vs, interpolating
// linearly between the closest ranks; 0 when vs is empty.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentile returns the highest of the reported percentiles that has at
// least ten of n samples beyond it, or 0 when none has: a tail percentile
// resting on fewer samples is one outlier wide.
func tailPercentile(n int) int {
	for _, p := range []int{99, 90, 75, 50} {
		if n-(p*n+99)/100 >= 10 {
			return p
		}
	}
	return 0
}

// perOp normalises a run total by its op count.
func perOp(total float64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return total / float64(ops)
}

// finite keeps NaN and infinities, which JSON cannot carry, out of results.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// deriveSeed maps (workload seed, stream, index) to a positive op seed with
// splitmix64, so every op's inputs follow from the workload seed alone.
func deriveSeed(seed int64, stream, i uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream<<32+i+1)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>33) + 1
}
