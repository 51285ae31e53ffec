package main

import (
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"pathfinder/internal/cpu"
)

// The in-process workloads run the code under test inside this process, so
// the process under test is the benchmark itself.

// inprocLoad brackets the ops of an in-process workload: it records the
// process's CPU time and each op's peak RSS, and in a traced run also a CPU
// profile and the Go runtime's allocation and GC counters.
type inprocLoad struct {
	trace bool
	start time.Time
	stat  procStat
	rss   []float64 // each op's peak RSS in MB
	prof  *os.File  // the CPU profile, traced runs only
	rt    []metrics.Sample
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntimeMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// rtValue reads sample i as a float, whatever its kind.
func rtValue(s []metrics.Sample, i int) float64 {
	if s[i].Value.Kind() == metrics.KindUint64 {
		return float64(s[i].Value.Uint64())
	}
	if s[i].Value.Kind() == metrics.KindFloat64 {
		return s[i].Value.Float64()
	}
	return 0
}

func startInprocLoad(cfg config) (*inprocLoad, error) {
	st, err := readProcStat(os.Getpid())
	if err != nil {
		return nil, err
	}
	l := &inprocLoad{trace: cfg.trace}
	if cfg.trace {
		if l.prof, err = os.Create(filepath.Join(cfg.work, "cpu.pprof")); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(l.prof); err != nil {
			l.prof.Close()
			return nil, err
		}
		l.rt = readRuntimeMetrics()
	}
	l.stat = st
	l.start = time.Now()
	return l, nil
}

// beginOp restarts the process's peak RSS, so that endOp reads the op's own
// peak. When the kernel refuses the reset, endOp reads the peak since the
// process started.
func (l *inprocLoad) beginOp() { _ = resetPeakRSS(os.Getpid()) }

// endOp records the peak RSS of the op that beginOp started.
func (l *inprocLoad) endOp() {
	if mb, err := peakRSSMB(os.Getpid()); err == nil {
		l.rss = append(l.rss, mb)
	}
}

// finish ends the load window and fills m's elapsed time, CPU and RSS; in a
// traced run it also charges the profile and runtime counters to m.layers.
func (l *inprocLoad) finish(m *measurement) error {
	m.elapsed = time.Since(l.start)
	m.rss = l.rss
	st, err := readProcStat(os.Getpid())
	if err != nil {
		return err
	}
	m.cpu = st.cpu - l.stat.cpu
	if !l.trace {
		return nil
	}
	pprof.StopCPUProfile()
	rt := readRuntimeMetrics()
	if err := l.prof.Close(); err != nil {
		return err
	}
	samples, err := readProfile(l.prof.Name())
	if err != nil {
		return err
	}
	ops := len(m.latencies)
	addProfile(m.layers, samples, ops)
	m.layers["runtime.alloc_mb_per_op"] = perOp((rtValue(rt, 0)-rtValue(l.rt, 0))/(1<<20), ops)
	m.layers["runtime.gc_cycles_per_op"] = perOp(rtValue(rt, 1)-rtValue(l.rt, 1), ops)
	m.layers["runtime.gc_cpu_frac"] = (rtValue(rt, 2) - rtValue(l.rt, 2)) / (rtValue(rt, 3) - rtValue(l.rt, 3))
	m.layers["runtime.page_faults_per_op"] = perOp(float64(st.faults-l.stat.faults), ops)
	return nil
}

// addProfile charges the samples of a CPU profile covering ops ops to the
// repo modules.
func addProfile(layers map[string]float64, samples []profSample, ops int) {
	charge := chargeModules(samples)
	var total time.Duration
	for mod, d := range charge {
		layers[mod+".cpu_ms_per_op"] = perOp(ms(d), ops)
		total += d
	}
	if total > 0 {
		layers["runtime.no_repo_frame_frac"] = float64(charge["runtime"]) / float64(total)
	}
}

// addSimCounts records the simulator counters of c, summed over ops ops.
func addSimCounts(layers map[string]float64, c cpu.Counters, ops int) {
	layers["cpu.instructions_per_op"] = perOp(float64(c.Instructions), ops)
	layers["cpu.cycles_per_op"] = perOp(float64(c.Cycles), ops)
	layers["cpu.runs_per_op"] = perOp(float64(c.Runs), ops)
	layers["cpu.transient_instrs_per_op"] = perOp(float64(c.TransientInstrs), ops)
	layers["bpu.cond_branches_per_op"] = perOp(float64(c.CondBranches), ops)
	layers["bpu.mispredicts_per_op"] = perOp(float64(c.Mispredicts), ops)
}
