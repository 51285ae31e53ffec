package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {10, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75},
		{99, 75}, {100, 90}, {999, 90}, {1000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		vs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 90, 7},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{ten, 50, 5.5},
		{ten, 90, 9.1},
		{ten, 100, 10},
	} {
		if got := percentile(c.vs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.vs, c.p, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
}

func TestPerOpNormalises(t *testing.T) {
	if got := perOp(10, 4); got != 2.5 {
		t.Errorf("perOp(10, 4) = %g, want 2.5", got)
	}
	if got := perOp(10, 0); got != 0 {
		t.Errorf("perOp(10, 0) = %g, want 0", got)
	}
}

func TestModuleOfChargesInnermostRepoFrame(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		// Runtime frames count toward the repo module that called them.
		{[]string{"runtime.mallocgc", "runtime.makeslice", "pathfinder/internal/cache.(*Cache).Access",
			"pathfinder/internal/cpu.(*Machine).Run", "main.main"}, "cache"},
		{[]string{"runtime.mapaccess2", "pathfinder/internal/phr.(*PHR).Update"}, "phr"},
		{[]string{"encoding/json.Marshal", "pathfinder/internal/service.writeJSON", "net/http.serve"}, "service"},
		{[]string{"pathfinder/internal/harness.AESLeakEval.func3"}, "harness"},
		// A repo module outside the reported list, and none at all.
		{[]string{"pathfinder/internal/jpeg.Encode", "pathfinder/internal/harness.X"}, "other"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"main.runJob", "pathfinder/benchmark.x"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := moduleOf(c.frames); got != c.want {
			t.Errorf("moduleOf(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// traces is `go tool pprof -traces -unit ns` output for three samples:
// runtime.mallocgc inlined into phr.Update, cpu.Run, and background GC.
const traces = `File: benchmark
Type: cpu
Duration: 1s, Total samples = 40000000ns (4.00%)
-----------+-------------------------------------------------------
10000000ns   runtime.mallocgc (inline)
             pathfinder/internal/phr.(*PHR).Update
             pathfinder/internal/cpu.(*Machine).Run
-----------+-------------------------------------------------------
20000000ns   pathfinder/internal/cpu.(*Machine).Run
             main.main
-----------+-------------------------------------------------------
10000000ns   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`

func TestParseTracesAttributesPerOp(t *testing.T) {
	samples, err := parseTraces(traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 || strings.Join(samples[0].frames, ",") !=
		"runtime.mallocgc,pathfinder/internal/phr.(*PHR).Update,pathfinder/internal/cpu.(*Machine).Run" {
		t.Fatalf("samples = %+v", samples)
	}
	layers := map[string]float64{}
	addProfile(layers, samples, 4)
	// 10 ms of phr, 20 ms of cpu and 10 ms with no repo frame over 4 ops.
	if layers["phr.cpu_ms_per_op"] != 2.5 || layers["cpu.cpu_ms_per_op"] != 5 || layers["runtime.cpu_ms_per_op"] != 2.5 {
		t.Errorf("per-op charge = phr %g cpu %g runtime %g, want 2.5, 5 and 2.5",
			layers["phr.cpu_ms_per_op"], layers["cpu.cpu_ms_per_op"], layers["runtime.cpu_ms_per_op"])
	}
	if layers["runtime.no_repo_frame_frac"] != 0.25 {
		t.Errorf("no-repo-frame share = %g, want 0.25", layers["runtime.no_repo_frame_frac"])
	}
	if _, err := parseTraces("File: benchmark\nType: cpu\n"); err == nil {
		t.Error("traces without samples parsed without error")
	}
}

func TestReadProfileReadsGoProfiles(t *testing.T) {
	file := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		x++
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := readProfile(file)
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, s := range samples {
		total += s.cpu
		if moduleOf(s.frames) != "runtime" {
			t.Errorf("sample %q charged to a repo module", s.frames)
		}
	}
	if total <= 0 || total > time.Second {
		t.Errorf("profile of a 300ms loop holds %v of CPU", total)
	}
}

func TestParseProcStat(t *testing.T) {
	// The command field may hold spaces and parentheses.
	line := "4242 (pathfinder (d) x) S 1 4242 4242 0 -1 4194560 500 0 7 0 250 50 0 0 20 0 9 0 12345 1000 200\n"
	st, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if st.cpu != 3*time.Second || st.faults != 507 {
		t.Errorf("parseProcStat = %+v, want 3s of CPU and 507 faults", st)
	}
	if _, err := parseProcStat("4242 (x) S 1"); err == nil {
		t.Error("truncated stat parsed without error")
	}
	if _, err := readProcStat(os.Getpid()); err != nil {
		t.Errorf("reading this process's stat: %v", err)
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tpathfinderd\nVmPeak:\t  900 kB\nVmHWM:\t  381384 kB\nVmRSS:\t  200 kB\n"
	if kb, err := parseStatusKB(status, "VmHWM"); err != nil || kb != 381384 {
		t.Errorf("VmHWM = %d, %v; want 381384", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key parsed without error")
	}
	if mb, err := peakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("peak RSS of this process = %g, %v", mb, err)
	}
}

func TestOpPeakRSSRestartsEachOp(t *testing.T) {
	if err := resetPeakRSS(os.Getpid()); err != nil {
		t.Skip("kernel refuses to reset the peak RSS:", err)
	}
	var l inprocLoad
	l.beginOp()
	big := make([]byte, 64<<20)
	for i := range big {
		big[i] = 1
	}
	l.endOp()
	runtime.KeepAlive(big)
	big = nil
	debug.FreeOSMemory()
	l.beginOp()
	l.endOp()
	// The second op allocates nothing, so its peak lies well below the
	// first op's 64 MB.
	if len(l.rss) != 2 || l.rss[0]-l.rss[1] < 32 {
		t.Errorf("per-op peaks = %v MB, want the second 32 MB or more below the first", l.rss)
	}
}

func TestDirMBCountsRegularFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "snapshots"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, size := range map[string]int{"journal.jsonl": 1 << 19, "snapshots/a.pfws": 1 << 18} {
		if err := os.WriteFile(filepath.Join(dir, name), make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := dirMB(dir); got != 0.75 {
		t.Errorf("dirMB = %g, want 0.75", got)
	}
	if got := dirMB(filepath.Join(dir, "missing")); got != 0 {
		t.Errorf("dirMB of a missing directory = %g, want 0", got)
	}
}

func TestParseDaemonCounters(t *testing.T) {
	m := parseMetrics("# HELP x y\n# TYPE x counter\n" +
		"pathfinderd_snapshot_store_ops_total{op=\"put\"} 12\npathfinderd_snapshot_store_bytes 1048576\n")
	if m[`pathfinderd_snapshot_store_ops_total{op="put"}`] != 12 || m["pathfinderd_snapshot_store_bytes"] != 1<<20 {
		t.Errorf("parseMetrics = %v", m)
	}
	heap, gc, err := parseMemStats("heap profile: 1: 2 [3: 4] @ heap/1048576\n\n# runtime.MemStats\n" +
		"# Alloc = 100\n# TotalAlloc = 5000\n# NumGC = 7\n# GCCPUFraction = 0.0125\n# DebugGC = false\n")
	if err != nil || heap["TotalAlloc"] != 5000 || heap["NumGC"] != 7 || gc != 0.0125 {
		t.Errorf("parseMemStats = %v, %g, %v", heap, gc, err)
	}
	if _, _, err := parseMemStats("heap profile: 0: 0 [0: 0] @ heap/1\n"); err == nil {
		t.Error("heap profile without MemStats parsed without error")
	}
}

// TestResultsMatchBenchmarkJSON keeps BENCHMARK.json, which automated
// comparisons read, in step with the metrics a run prints.
func TestResultsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	m := &measurement{latencies: []time.Duration{time.Second}, elapsed: time.Second}
	for _, c := range []struct {
		name  string
		specs []spec
		got   map[string]metric
	}{
		{"end_to_end", bj.EndToEnd, endToEnd(m)},
		{"per_layer", bj.PerLayer, perLayer(m)},
	} {
		if len(c.specs) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, a run prints %d", c.name, len(c.specs), len(c.got))
		}
		for _, s := range c.specs {
			if g, ok := c.got[s.Name]; !ok || g.Unit != s.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, run prints %+v", c.name, s.Name, s.Unit, g)
			}
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
}

// TestSourcesLeaveSwitchesAtDefaults keeps the benchmark driving every
// layer at its defaults: it may not name an A/B switch, so those switches
// can become test hooks without editing the benchmark.
func TestSourcesLeaveSwitchesAtDefaults(t *testing.T) {
	// Spelled in pieces so this file does not name them either.
	switches := []string{"Planner" + "Mode", "WarmCache" + "Mode", "PATHFINDER_" + "WARMCACHE",
		"SetStore" + "DeltaEnabled", "store" + "-delta", "fetch" + "-delta", "Parallel" + "ism", "Batch" + "Size"}
	files, err := filepath.Glob("*")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, f := range files {
		if !strings.HasSuffix(f, ".go") && !strings.HasSuffix(f, ".sh") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, s := range switches {
			if bytes.Contains(b, []byte(s)) {
				t.Errorf("%s names %s; drive the layer at its default instead", f, s)
			}
		}
	}
	if checked < 2 {
		t.Fatalf("checked only %d source files", checked)
	}
}
