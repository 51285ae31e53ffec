package cpu

import (
	"strconv"
	"testing"

	"pathfinder/internal/isa"
)

// benchProgram is a tight counted loop: one data-dependent add, one counter
// increment, one conditional back edge per iteration. Per-op cost here is the
// per-instruction cost of the decode/dispatch path plus one predicted branch
// (PHR update, CBP predict/update, branch-stat bump) per three instructions —
// the inner loop every experiment in the harness spends its time in.
func benchProgram(b *testing.B, iters int64) *isa.Program {
	b.Helper()
	a := isa.NewAssembler()
	a.Label("main")
	a.MovI(isa.R1, 0)
	a.MovI(isa.R2, iters)
	a.MovI(isa.R3, 0)
	a.Label("loop")
	a.Add(isa.R1, isa.R1, isa.R3)
	a.AddI(isa.R3, isa.R3, 1)
	a.Br(isa.LT, isa.R3, isa.R2, "loop")
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkRunBranchLoop measures steady-state interpreter throughput: the
// program is predecoded on the first Run and served from the decoded-program
// cache afterwards, so the loop body dominates.
func BenchmarkRunBranchLoop(b *testing.B) {
	p := benchProgram(b, 4096)
	m := New(Options{})
	if err := m.Run(p, "main"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Run(p, "main"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchStep measures the harness's actual steady state: a K-lane
// batch whose lanes are recycled to per-trial seeds and run to completion,
// one group per iteration, exactly as the sharded drivers drive it. The
// ns/instr metric is the per-simulated-instruction cost; BENCH_baseline.json
// gates the ns/op it derives from, and allocs/op must be 0 once the decoded
// program cache and lane arenas are warm.
func BenchmarkBatchStep(b *testing.B) {
	const iters = 4096
	p := benchProgram(b, iters)
	for _, k := range []int{1, 8} {
		b.Run("K="+strconv.Itoa(k), func(b *testing.B) {
			bat := NewBatch(Options{}, k)
			warm := func(seedBase int64) {
				for i := 0; i < bat.K(); i++ {
					m := bat.Lane(i)
					m.Recycle(Options{Seed: seedBase + int64(i)})
					if err := m.Run(p, "main"); err != nil {
						b.Fatal(err)
					}
				}
			}
			warm(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				warm(int64(i) * int64(k))
			}
			b.StopTimer()
			instrs := float64(iters)*3 + 4 // loop body ×3 + prologue/halt
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(k)*instrs), "ns/instr")
		})
	}
}

// BenchmarkSnapshot measures capturing full predictor-visible state into a
// reused Snapshot — the once-per-configuration cost of priming the harness
// warm-state cache after training.
func BenchmarkSnapshot(b *testing.B) {
	p := benchProgram(b, 256)
	m := New(Options{Seed: 1})
	if err := m.Run(p, "main"); err != nil {
		b.Fatal(err)
	}
	var snap Snapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SnapshotInto(&snap)
	}
}

// BenchmarkRestore measures rewinding a machine to a warm snapshot via the
// flat full-copy path — the cost every trial paid before dirty tracking,
// and still the cost when restore-sync cannot be established (first restore
// on a lane, cross-snapshot hops). forgetRestoreSync pins the full path;
// BenchmarkDirtyRestore measures the tracked one.
func BenchmarkRestore(b *testing.B) {
	p := benchProgram(b, 256)
	m := New(Options{Seed: 1})
	if err := m.Run(p, "main"); err != nil {
		b.Fatal(err)
	}
	snap := m.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.forgetRestoreSync()
		m.RestoreFrom(snap)
	}
}

// BenchmarkDirtyRestore measures the dirty-tracked restore on the warm
// per-trial path: each iteration runs a trial-sized workload (untimed) and
// times only the rewind, which copies just the regions the trial touched.
// BenchmarkRestore times the full rewind to the same snapshot; both are
// gated in BENCH_baseline.json.
func BenchmarkDirtyRestore(b *testing.B) {
	p := benchProgram(b, 256)
	m := New(Options{Seed: 1})
	if err := m.Run(p, "main"); err != nil {
		b.Fatal(err)
	}
	snap := m.Snapshot()
	m.RestoreFrom(snap) // establish restore-sync
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m.Reseed(int64(i))
		if err := m.Run(p, "main"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		m.RestoreFrom(snap)
	}
}

// BenchmarkRecycle measures resetting a machine to power-on state, the
// per-trial overhead the harness machine pools pay instead of cpu.New.
func BenchmarkRecycle(b *testing.B) {
	p := benchProgram(b, 64)
	m := New(Options{Seed: 1})
	if err := m.Run(p, "main"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Recycle(Options{Seed: int64(i)})
	}
}

// BenchmarkRunJumpChains measures the Read_PHR train/test loop's shape: per
// loop iteration a coin branch picks a 194-slot Write_PHR-shaped chain or a
// 194-slot Clear_PHR chain, then the test branch. One op is a 64-iteration
// run, so 12,416 jumps; ns/jump is the op's time per jump.
func BenchmarkRunJumpChains(b *testing.B) {
	const iters = 64
	p := readPHRLoop(b, iters)
	m := New(Options{})
	if err := m.Run(p, "main"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Run(p, "main"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*iters*194), "ns/jump")
}
