package cpu

import (
	"fmt"
	"testing"

	"pathfinder/internal/bpu"
	"pathfinder/internal/isa"
	"pathfinder/internal/phr"
	"pathfinder/internal/refmodel"
	"pathfinder/internal/trace"
)

// This file is the differential harness pinning the batch/dense engine to the
// scalar interpreter and the refmodel oracle: a byte-directed program
// generator, a three-way per-trial comparison (dense batch lanes vs
// Options.Scalar vs refmodel-backed machines), and a stimulus recorder that
// replays every branch the program executed through trace.Diff for
// first-divergence state dumps.

// fuzzRd dispenses generator decisions from fuzzer bytes, cycling so short
// (or empty) inputs still drive a full program.
type fuzzRd struct {
	data []byte
	i    int
}

func (r *fuzzRd) next() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[r.i%len(r.data)]
	r.i++
	return b
}

// fuzzProgram builds a deterministic, always-terminating program from fuzzer
// bytes: a counted outer loop whose body is a byte-directed mix of ALU ops,
// loads and stores, RAND-driven coin branches (the mispredict + transient
// fodder), counter-dependent forward branches, leaf calls, jumps and address
// scatters. The counted loop branch is the only backward edge, so every
// generated program halts on its own.
func fuzzProgram(data []byte) (*isa.Program, error) {
	rd := &fuzzRd{data: data}
	a := isa.NewAssembler()
	scratch := []isa.Reg{isa.R5, isa.R6, isa.R7, isa.R8, isa.R9}
	reg := func() isa.Reg { return scratch[int(rd.next())%len(scratch)] }
	nfn := 1 + int(rd.next()%3)

	a.Label("main")
	a.MovI(isa.R1, 0)                          // loop counter
	a.MovI(isa.R2, int64(2+int(rd.next()%14))) // trip count
	a.MovI(isa.R3, 0x8000)                     // data base
	a.MovI(isa.R4, 1)
	for i, r := range scratch {
		a.MovI(r, int64(i*7+1))
	}
	a.Label("loop")
	lbl := 0
	nseg := 1 + int(rd.next()%12)
	for s := 0; s < nseg; s++ {
		switch rd.next() % 10 {
		case 0:
			a.Add(reg(), reg(), reg())
		case 1:
			a.Xor(reg(), reg(), reg())
		case 2:
			a.AddI(reg(), reg(), int64(rd.next()))
		case 3:
			a.ShlI(reg(), reg(), int64(rd.next()%8))
		case 4:
			a.St(isa.R3, int64(rd.next()%32)*8, reg())
			a.Ld(reg(), isa.R3, int64(rd.next()%32)*8)
		case 5:
			// Coin branch: deterministic per machine seed, unpredictable to
			// the CBP — the program's mispredict and transient-window source.
			l := fmt.Sprintf("c%d", lbl)
			lbl++
			a.Rand(isa.R10)
			a.And(isa.R10, isa.R10, isa.R4)
			a.Br(isa.EQ, isa.R10, isa.R4, l)
			a.AddI(reg(), reg(), 1)
			a.Label(l)
		case 6:
			// Counter-parity branch: data-dependent but CBP-learnable.
			l := fmt.Sprintf("d%d", lbl)
			lbl++
			a.And(isa.R11, isa.R1, isa.R4)
			a.Br(isa.EQ, isa.R11, isa.R4, l)
			a.Xor(reg(), reg(), reg())
			a.Label(l)
		case 7:
			a.Call(fmt.Sprintf("fn%d", int(rd.next())%nfn))
		case 8:
			l := fmt.Sprintf("j%d", lbl)
			lbl++
			a.Jmp(l)
			a.Nop()
			a.Label(l)
		case 9:
			// Address scatter: vary the PC bits feeding PHR footprints and
			// PHT index/tag folds without changing control flow.
			a.Align(1<<(4+uint(rd.next()%8)), 0)
		}
	}
	a.AddI(isa.R1, isa.R1, 1)
	a.Br(isa.LT, isa.R1, isa.R2, "loop")
	a.Halt()
	for i := 0; i < nfn; i++ {
		a.Label(fmt.Sprintf("fn%d", i))
		a.AddI(isa.R12, isa.R12, int64(i+1))
		a.Ret()
	}
	return a.Assemble()
}

// fuzzKs are the batch widths the differential suite exercises: the scalar
// degenerate, tiny, odd (partial final arena group) and wide cases.
var fuzzKs = [...]int{1, 2, 7, 64}

const fuzzStepLimit = 1 << 20

// machineDump renders the state a divergence report needs: counters, the
// PHR, and every trained predictor entry.
func machineDump(m *Machine) string {
	return fmt.Sprintf("stats: %+v\nPHR: %v\n%s", m.Stats(), m.Hart(0).PHR, m.BPU.CBP.DumpState())
}

// compareLanes fails the test at the first architectural divergence between
// two machines that executed the same trial.
func compareLanes(t *testing.T, label string, lane int, got, want *Machine) {
	t.Helper()
	fail := func(reason string) {
		t.Helper()
		t.Fatalf("lane %d: %s: %s\n--- got ---\n%s\n--- want ---\n%s",
			lane, label, reason, machineDump(got), machineDump(want))
	}
	if got.Stats() != want.Stats() {
		fail(fmt.Sprintf("counters differ: %+v vs %+v", got.Stats(), want.Stats()))
	}
	for r := 0; r < isa.NumRegs; r++ {
		if g, w := got.Hart(0).Reg(isa.Reg(r)), want.Hart(0).Reg(isa.Reg(r)); g != w {
			fail(fmt.Sprintf("R%d = %#x, want %#x", r, g, w))
		}
	}
	if !got.Hart(0).PHR.Equal(want.Hart(0).PHR) {
		fail("history registers differ")
	}
}

// recordingPred wraps the production CBP and logs every committed
// conditional branch. Predictions pass through unchanged, so the recording
// run executes exactly like a production scalar run.
type recordingPred struct {
	bpu.Predictor
	log *[]trace.Branch
}

func (r recordingPred) Update(pc uint64, h phr.History, taken bool, p bpu.Prediction) {
	*r.log = append(*r.log, trace.Branch{PC: pc, Cond: true, Taken: taken})
	r.Predictor.Update(pc, h, taken, p)
}

// recordStream replays the program on an instrumented scalar machine and
// returns the full branch stimulus it committed: conditional branches from
// the predictor's Update stream, targets and unconditional transfers from
// the TraceTaken hook. Transient execution never calls Update or TraceTaken,
// so the stream holds exactly the architectural branches.
func recordStream(t *testing.T, prog *isa.Program, o Options) []trace.Branch {
	t.Helper()
	var log []trace.Branch
	o.NewPredictor = func(c bpu.Config) bpu.Predictor {
		return recordingPred{Predictor: bpu.NewCBP(c), log: &log}
	}
	m := New(o)
	m.TraceTaken = func(pc, tgt uint64) {
		if n := len(log); n > 0 && log[n-1].Cond && log[n-1].PC == pc && log[n-1].Taken && log[n-1].Target == 0 {
			log[n-1].Target = tgt // the taken conditional Update just logged
			return
		}
		log = append(log, trace.Branch{PC: pc, Target: tgt, Taken: true})
	}
	if err := m.Run(prog, "main"); err != nil {
		t.Logf("recording run ended with %v (stream kept: engines must agree on the error)", err)
	}
	return log
}

// diffBatchVsScalar is the core differential check: K batch lanes on the
// dense engine against per-trial scalar-interpreter and refmodel-oracle
// machines, plus a trace.Diff replay of lane 0's recorded stimulus.
func diffBatchVsScalar(t *testing.T, data []byte, archSel, kSel uint8) {
	t.Helper()
	cfg := bpu.Configs()[int(archSel)%3]
	k := fuzzKs[int(kSel)%len(fuzzKs)]
	prog, err := fuzzProgram(data)
	if err != nil {
		t.Fatalf("generator produced an unassemblable program: %v", err)
	}
	laneOpts := func(scalar bool, lane int) Options {
		return Options{Arch: cfg, Seed: 1000 + int64(lane), StepLimit: fuzzStepLimit, Scalar: scalar}
	}

	// Dense side: all K trials on one batch's arena lanes.
	b := NewBatch(Options{Arch: cfg, StepLimit: fuzzStepLimit}, k)
	denseErrs := make([]string, k)
	denseHash := make([]uint64, k)
	for i := 0; i < k; i++ {
		m := b.Lane(i)
		m.Recycle(laneOpts(false, i))
		if !m.denseEligible() {
			t.Fatal("hookless lane not eligible for the dense engine")
		}
		if err := m.Run(prog, "main"); err != nil {
			denseErrs[i] = err.Error()
		}
		denseHash[i] = m.Snapshot().Hash()
	}

	for i := 0; i < k; i++ {
		// Scalar interpreter oracle.
		sm := New(laneOpts(true, i))
		var serr string
		if err := sm.Run(prog, "main"); err != nil {
			serr = err.Error()
		}
		if serr != denseErrs[i] {
			t.Fatalf("lane %d: dense error %q, scalar error %q", i, denseErrs[i], serr)
		}
		compareLanes(t, "dense vs scalar", i, b.Lane(i), sm)
		if h := sm.Snapshot().Hash(); h != denseHash[i] {
			t.Fatalf("lane %d: snapshot hash %#x (dense) != %#x (scalar) with identical architectural state:\n--- dense ---\n%s\n--- scalar ---\n%s",
				i, denseHash[i], h, machineDump(b.Lane(i)), machineDump(sm))
		}

		// Refmodel oracle: bit-by-bit folds, map-backed tables. No snapshot
		// (custom predictors cannot snapshot); architectural compare only.
		ro := laneOpts(true, i)
		ro.NewPredictor = refmodel.NewPredictor
		rm := New(ro)
		var rerr string
		if err := rm.Run(prog, "main"); err != nil {
			rerr = err.Error()
		}
		if rerr != denseErrs[i] {
			t.Fatalf("lane %d: dense error %q, refmodel error %q", i, denseErrs[i], rerr)
		}
		if rm.Stats() != b.Lane(i).Stats() {
			t.Fatalf("lane %d: dense vs refmodel counters differ: %+v vs %+v",
				i, b.Lane(i).Stats(), rm.Stats())
		}
		for r := 0; r < isa.NumRegs; r++ {
			if g, w := b.Lane(i).Hart(0).Reg(isa.Reg(r)), rm.Hart(0).Reg(isa.Reg(r)); g != w {
				t.Fatalf("lane %d: dense vs refmodel R%d = %#x, want %#x", i, r, g, w)
			}
		}
		if !b.Lane(i).Hart(0).PHR.Equal(rm.Hart(0).PHR) {
			t.Fatalf("lane %d: dense vs refmodel history registers differ", i)
		}
	}

	// Replay lane 0's exact branch stimulus through the lockstep
	// differential: on divergence trace.Diff dumps the first bad step with
	// full predictor state from both implementations.
	stream := recordStream(t, prog, laneOpts(true, 0))
	if d := trace.Diff(trace.NewModel(cfg), trace.NewOracle(cfg), stream); d != nil {
		t.Fatalf("production model diverged from refmodel oracle on the recorded stimulus:\n%s", d)
	}
}

// TestBatchVsScalarParity runs the differential over a fixed corpus at every
// batch width, so the equivalence contract is checked on every plain `go
// test` run, not only under the fuzzer.
func TestBatchVsScalarParity(t *testing.T) {
	corpus := [][]byte{
		nil,
		{5, 1, 5, 0, 5, 1},
		{7, 3, 9, 250, 4, 4, 5, 6, 7, 8, 9, 0, 1, 2},
		{200, 199, 198, 5, 5, 5, 6, 6, 6, 9, 9, 9, 7, 7},
		{13, 42, 99, 5, 250, 17, 6, 88, 3, 1, 4, 1, 5, 9, 2, 6},
	}
	for ci, data := range corpus {
		for kSel := range fuzzKs {
			t.Run(fmt.Sprintf("corpus%d/K%d", ci, fuzzKs[kSel]), func(t *testing.T) {
				diffBatchVsScalar(t, data, uint8(ci), uint8(kSel))
			})
		}
	}
}

// TestMidBatchSnapshotRoundTrip pins snapshot semantics at batch grain: a
// lane captured mid-batch (its trial half run, earlier lanes complete, later
// lanes untouched) must restore onto the same lane, a fresh standalone
// machine, a lane of a different-width batch, and a machine rebuilt from the
// wire codec — and every restoree must finish the trial bit-identically.
// Arena placement (structure-of-arrays PHRs) must be unobservable.
func TestMidBatchSnapshotRoundTrip(t *testing.T) {
	data := []byte{13, 42, 99, 5, 250, 17, 6, 88, 3, 1, 4, 1, 5, 9, 2, 6}
	cases := []struct {
		name string
		k    int
		lane int // capture at trial `lane` of k
	}{
		{"K4/first", 4, 0},
		{"K4/mid", 4, 2},
		{"K7/last", 7, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := fuzzProgram(data)
			if err != nil {
				t.Fatal(err)
			}
			opts := func(lane int) Options {
				return Options{Seed: 7000 + int64(lane), StepLimit: fuzzStepLimit}
			}
			finish := func(m *Machine) uint64 {
				t.Helper()
				if err := m.Run(prog, "main"); err != nil {
					t.Fatal(err)
				}
				return m.Snapshot().Hash()
			}

			b := NewBatch(Options{StepLimit: fuzzStepLimit}, tc.k)
			// Earlier lanes complete their trials (two runs each) so the
			// capture happens inside a genuinely in-progress batch.
			for i := 0; i < tc.lane; i++ {
				m := b.Lane(i)
				m.Recycle(opts(i))
				finish(m)
				finish(m)
			}
			m := b.Lane(tc.lane)
			m.Recycle(opts(tc.lane))
			finish(m) // half the trial: trained, not yet measured
			var snap Snapshot
			m.SnapshotInto(&snap)
			want := finish(m) // the trial's true final state

			// Rewind the same lane.
			m.RestoreFrom(&snap)
			if got := finish(m); got != want {
				t.Fatalf("same-lane rewind finished at %#x, want %#x", got, want)
			}

			// A standalone machine.
			fresh := New(opts(tc.lane))
			fresh.RestoreFrom(&snap)
			if got := finish(fresh); got != want {
				t.Fatalf("standalone restore finished at %#x, want %#x", got, want)
			}

			// A lane of a different-width batch.
			other := NewBatch(opts(tc.lane), 2)
			om := other.Lane(1)
			om.RestoreFrom(&snap)
			if got := finish(om); got != want {
				t.Fatalf("cross-batch restore finished at %#x, want %#x", got, want)
			}

			// Wire codec round-trip of the mid-batch capture.
			wire, err := snap.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeSnapshot(wire)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Hash() != snap.Hash() {
				t.Fatalf("wire round-trip hash %#x, want %#x", dec.Hash(), snap.Hash())
			}
			wm := New(opts(tc.lane))
			wm.RestoreFrom(dec)
			if got := finish(wm); got != want {
				t.Fatalf("wire-restored machine finished at %#x, want %#x", got, want)
			}

			// The restore games must not have disturbed arena neighbours:
			// later lanes still run their trials exactly like standalone
			// machines.
			for i := tc.lane + 1; i < tc.k; i++ {
				lm := b.Lane(i)
				lm.Recycle(opts(i))
				finish(lm)
				got := finish(lm)
				sm := New(opts(i))
				finish(sm)
				if wantLane := finish(sm); got != wantLane {
					t.Fatalf("lane %d after restores finished at %#x, standalone %#x", i, got, wantLane)
				}
			}
		})
	}
}

// FuzzBatchVsScalar lets the fuzzer choose the program, microarchitecture
// and batch width, then requires the dense batch engine, the scalar
// interpreter and the refmodel oracle to agree on every trial. Run locally
// with:
//
//	go test ./internal/cpu -run='^$' -fuzz=FuzzBatchVsScalar -fuzztime=30s
func FuzzBatchVsScalar(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{5, 1, 5, 0, 5, 1}, uint8(1), uint8(1))
	f.Add([]byte{7, 3, 9, 250, 4, 4, 5, 6, 7, 8, 9, 0, 1, 2}, uint8(2), uint8(2))
	f.Add([]byte{13, 42, 99, 5, 250, 17, 6, 88, 3, 1, 4, 1, 5, 9, 2, 6}, uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, archSel, kSel uint8) {
		if len(data) > 1<<12 {
			return // bound per-input work; program shape saturates well before this
		}
		diffBatchVsScalar(t, data, archSel, kSel)
	})
}

// TestBatchGroupOperations pins the batch-grain API the harness drivers lean
// on: RecycleAll resets every lane to one option set, RestoreAll fans one
// warm snapshot out to all lanes, and Each linearizes over lanes in order —
// after which every lane must be indistinguishable from a standalone machine
// given the same history.
func TestBatchGroupOperations(t *testing.T) {
	prog, err := fuzzProgram([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 11, StepLimit: fuzzStepLimit}
	b := NewBatch(opts, 3)
	if b.K() != 3 {
		t.Fatalf("K() = %d, want 3", b.K())
	}
	if got := b.Options(); got.Seed != opts.Seed || got.StepLimit != opts.StepLimit {
		t.Fatalf("Options() = %+v, want Seed/StepLimit of %+v", got, opts)
	}

	// Dirty every lane, then RecycleAll back to a common power-on state.
	if err := b.Each(func(lane int, m *Machine) error {
		m.Recycle(Options{Seed: int64(100 + lane), StepLimit: fuzzStepLimit})
		return m.Run(prog, "main")
	}); err != nil {
		t.Fatal(err)
	}
	b.RecycleAll(opts)

	// Warm one reference machine, fan its snapshot out, and let every lane
	// finish the program; each must land exactly where a standalone machine
	// restored from the same snapshot does.
	ref := New(opts)
	if err := ref.Run(prog, "main"); err != nil {
		t.Fatal(err)
	}
	snap := ref.Snapshot()
	b.RestoreAll(snap)
	if err := ref.Run(prog, "main"); err != nil {
		t.Fatal(err)
	}
	want := ref.Snapshot().Hash()
	if err := b.Each(func(lane int, m *Machine) error {
		return m.Run(prog, "main")
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.K(); i++ {
		if got := b.Lane(i).Snapshot().Hash(); got != want {
			t.Errorf("lane %d finished at %#x, standalone restore finished at %#x", i, got, want)
		}
	}

	// Each stops at the first error and reports it.
	sentinel := fmt.Errorf("lane 1 boom")
	ran := 0
	if err := b.Each(func(lane int, m *Machine) error {
		ran++
		if lane == 1 {
			return sentinel
		}
		return nil
	}); err != sentinel {
		t.Errorf("Each returned %v, want sentinel", err)
	}
	if ran != 2 {
		t.Errorf("Each visited %d lanes after an error at lane 1, want 2", ran)
	}
}
