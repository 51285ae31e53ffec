package pathfinder_test

import (
	"testing"

	"pathfinder/internal/cpu"
	"pathfinder/internal/isa"
	"pathfinder/internal/pathfinder"
	"pathfinder/internal/phr"
)

func mustAssemble(t testing.TB, build func(a *isa.Assembler)) *isa.Program {
	t.Helper()
	a := isa.NewAssembler()
	build(a)
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runTraced executes prog from entry on a fresh machine and returns the
// final PHR, the taken-branch trace, and a virtual unbounded doublet
// history (index 0 most recent) for Ext construction.
func runTraced(t testing.TB, prog *isa.Program, entry string, setup func(m *cpu.Machine)) (*phr.Reg, []uint8) {
	t.Helper()
	m := cpu.New(cpu.Options{})
	var fps []uint16
	m.TraceTaken = func(pc, target uint64) { fps = append(fps, phr.Footprint(pc, target)) }
	if setup != nil {
		setup(m)
	}
	if err := m.Run(prog, entry); err != nil {
		t.Fatal(err)
	}
	return m.Hart(0).PHR.Clone(), virtualHistory(fps)
}

// virtualHistory applies taken-branch footprints oldest-first over an
// unbounded doublet array (index 0 most recent).
func virtualHistory(fps []uint16) []uint8 {
	virt := make([]uint8, len(fps)+8)
	for _, f := range fps {
		copy(virt[1:], virt)
		virt[0] = 0
		for i := 0; i < 8; i++ {
			virt[i] ^= uint8(f>>(2*i)) & 3
		}
	}
	return virt
}

func extFrom(virt []uint8, window int) []phr.Doublet {
	if len(virt) <= window {
		return nil
	}
	out := make([]phr.Doublet, len(virt)-window)
	copy(out, virt[window:])
	return out
}

// The programs of the search unit tests. Each runs from label "entry" and
// halts at label "end"; search_ref_test.go runs the same programs through
// the reference search.

// loopProg is a counted loop of trips iterations at org; its back edge is
// labelled "back".
func loopProg(t testing.TB, org uint64, trips int64) *isa.Program {
	return mustAssemble(t, func(a *isa.Assembler) {
		a.Org(org)
		a.Label("entry")
		a.MovI(isa.R1, 0)
		a.MovI(isa.R2, trips)
		a.Label("loop")
		a.AddI(isa.R1, isa.R1, 1)
		a.Label("back")
		a.Br(isa.LT, isa.R1, isa.R2, "loop")
		a.Label("end")
		a.Halt()
	})
}

// nestedLoopsProg runs 4 outer iterations of 3 inner iterations.
func nestedLoopsProg(t testing.TB) *isa.Program {
	return mustAssemble(t, func(a *isa.Assembler) {
		a.Org(0x3000)
		a.Label("entry")
		a.MovI(isa.R1, 0) // i
		a.Label("outer")
		a.MovI(isa.R2, 0) // j
		a.Label("inner")
		a.AddI(isa.R2, isa.R2, 1)
		a.MovI(isa.R4, 3)
		a.Label("innerbr")
		a.Br(isa.LT, isa.R2, isa.R4, "inner")
		a.AddI(isa.R1, isa.R1, 1)
		a.MovI(isa.R4, 4)
		a.Label("outerbr")
		a.Br(isa.LT, isa.R1, isa.R4, "outer")
		a.Label("end")
		a.Halt()
	})
}

// ladderSecret is the data ladderProg branches on, installed by
// ladderSetup.
var ladderSecret = []byte{1, 0, 1, 1, 0, 0, 1, 0}

// ladderProg is an if/else ladder reading secret memory: branch "bit" is
// taken on each one bit.
func ladderProg(t testing.TB) *isa.Program {
	return mustAssemble(t, func(a *isa.Assembler) {
		a.Org(0x4000)
		a.Label("entry")
		a.MovI(isa.R5, 0x9000) // secret array
		a.MovI(isa.R1, 0)      // i
		a.MovI(isa.R2, 8)
		a.MovI(isa.R6, 1)
		a.Label("loop")
		a.Add(isa.R3, isa.R5, isa.R1)
		a.LdB(isa.R4, isa.R3, 0)
		a.Label("bit")
		a.Br(isa.EQ, isa.R4, isa.R6, "one")
		a.Nop() // "zero" side
		a.Jmp("join")
		a.Label("one")
		a.Nop()
		a.Label("join")
		a.AddI(isa.R1, isa.R1, 1)
		a.Label("back")
		a.Br(isa.LT, isa.R1, isa.R2, "loop")
		a.Label("end")
		a.Halt()
	})
}

func ladderSetup(m *cpu.Machine) { m.Mem.WriteBytes(0x9000, ladderSecret) }

// callReturnProg calls one helper twice.
func callReturnProg(t testing.TB) *isa.Program {
	return mustAssemble(t, func(a *isa.Assembler) {
		a.Org(0x5000)
		a.Label("entry")
		a.MovI(isa.R1, 2)
		a.Call("helper")
		a.Call("helper")
		a.Label("end")
		a.Halt()
		a.Org(0x6100)
		a.Label("helper")
		a.AddI(isa.R1, isa.R1, 1)
		a.Ret()
	})
}

// windowTrips is the trip count of the loop whose history outgrows the PHR
// window.
const windowTrips = 250

// unitProgram is one search unit-test program and the data its run reads.
type unitProgram struct {
	name  string
	prog  *isa.Program
	setup func(m *cpu.Machine)
}

func unitPrograms(t testing.TB) []unitProgram {
	return []unitProgram{
		{"simple-loop", loopProg(t, 0x2000, 5), nil},
		{"nested-loops", nestedLoopsProg(t), nil},
		{"ladder", ladderProg(t), ladderSetup},
		{"call-return", callReturnProg(t), nil},
		{"window-loop", loopProg(t, 0x7000, windowTrips), nil},
		{"block-sequence", loopProg(t, 0x8000, 3), nil},
	}
}

func TestSearchSimpleLoop(t *testing.T) {
	const trips = 5
	p := loopProg(t, 0x2000, trips)
	observed, _ := runTraced(t, p, "entry", nil)
	cfg, err := pathfinder.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := cfg.Search(pathfinder.Spec{
		Observed: observed,
		Entry:    p.MustSymbol("entry"),
		Final:    p.MustSymbol("end"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || !paths[0].Complete {
		t.Fatalf("want 1 complete path, got %d (%v)", len(paths), paths)
	}
	back := p.MustSymbol("back")
	if got := paths[0].TakenCount(back); got != trips-1 {
		t.Fatalf("loop back-edge taken %d times, want %d", got, trips-1)
	}
	if got := paths[0].VisitCount(back); got != trips {
		t.Fatalf("loop branch executed %d times, want %d", got, trips)
	}
	// The final execution is the not-taken exit.
	out := paths[0].Outcomes()
	if out[len(out)-1].Taken {
		t.Fatal("last branch instance should be not-taken (loop exit)")
	}
}

func TestSearchNestedLoops(t *testing.T) {
	p := nestedLoopsProg(t)
	observed, _ := runTraced(t, p, "entry", nil)
	cfg, _ := pathfinder.Build(p)
	paths, err := cfg.Search(pathfinder.Spec{
		Observed: observed,
		Entry:    p.MustSymbol("entry"),
		Final:    p.MustSymbol("end"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || !paths[0].Complete {
		t.Fatalf("want 1 complete path, got %d", len(paths))
	}
	// 4 outer iterations, each with 3 inner iterations (2 back-edges).
	if got := paths[0].TakenCount(p.MustSymbol("innerbr")); got != 4*2 {
		t.Fatalf("inner back-edges %d, want 8", got)
	}
	if got := paths[0].TakenCount(p.MustSymbol("outerbr")); got != 3 {
		t.Fatalf("outer back-edges %d, want 3", got)
	}
}

func TestSearchRecoversDataDependentBranches(t *testing.T) {
	// An if/else ladder reading secret memory: the recovered path must
	// reveal each secret bit — the core leak of the paper.
	p := ladderProg(t)
	observed, _ := runTraced(t, p, "entry", ladderSetup)
	cfg, _ := pathfinder.Build(p)
	paths, err := cfg.Search(pathfinder.Spec{
		Observed: observed,
		Entry:    p.MustSymbol("entry"),
		Final:    p.MustSymbol("end"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || !paths[0].Complete {
		t.Fatalf("want 1 complete path, got %d", len(paths))
	}
	bit := p.MustSymbol("bit")
	var got []byte
	for _, s := range paths[0].Outcomes() {
		if s.Addr == bit {
			if s.Taken {
				got = append(got, 1)
			} else {
				got = append(got, 0)
			}
		}
	}
	if len(got) != len(ladderSecret) {
		t.Fatalf("recovered %d bits, want %d", len(got), len(ladderSecret))
	}
	for i := range ladderSecret {
		if got[i] != ladderSecret[i] {
			t.Fatalf("bit %d: got %d want %d (full: %v)", i, got[i], ladderSecret[i], got)
		}
	}
}

func TestSearchThroughCallReturn(t *testing.T) {
	p := callReturnProg(t)
	observed, _ := runTraced(t, p, "entry", nil)
	cfg, _ := pathfinder.Build(p)
	paths, err := cfg.Search(pathfinder.Spec{
		Observed: observed,
		Entry:    p.MustSymbol("entry"),
		Final:    p.MustSymbol("end"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || !paths[0].Complete {
		t.Fatalf("want 1 complete path, got %d", len(paths))
	}
	calls, rets := 0, 0
	for _, s := range paths[0].Steps {
		switch s.Kind {
		case pathfinder.EdgeCall:
			calls++
		case pathfinder.EdgeReturn:
			rets++
		}
	}
	if calls != 2 || rets != 2 {
		t.Fatalf("calls=%d rets=%d, want 2/2", calls, rets)
	}
}

func TestSearchWindowTruncationAndExt(t *testing.T) {
	// A loop with more taken branches than the PHR window: without Ext the
	// search reports an incomplete path; with Ext (here from ground truth,
	// in the real attack from Extended_Read_PHR) it completes and recovers
	// the exact trip count — the >194-iteration limitation of §6 lifted.
	p := loopProg(t, 0x7000, windowTrips)
	observed, virt := runTraced(t, p, "entry", nil)
	cfg, _ := pathfinder.Build(p)

	noExt, err := cfg.Search(pathfinder.Spec{
		Observed: observed,
		Entry:    p.MustSymbol("entry"),
		Final:    p.MustSymbol("end"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pp := range noExt {
		if pp.Complete {
			t.Fatal("path cannot be complete without extended history")
		}
	}

	withExt, err := cfg.Search(pathfinder.Spec{
		Observed: observed,
		Ext:      extFrom(virt, observed.Size()),
		Entry:    p.MustSymbol("entry"),
		Final:    p.MustSymbol("end"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(withExt) != 1 || !withExt[0].Complete {
		t.Fatalf("want 1 complete path with ext, got %d", len(withExt))
	}
	if got := withExt[0].TakenCount(p.MustSymbol("back")); got != windowTrips-1 {
		t.Fatalf("trip count %d, want %d", got, windowTrips-1)
	}
}

func TestBlockSequence(t *testing.T) {
	p := loopProg(t, 0x8000, 3)
	observed, _ := runTraced(t, p, "entry", nil)
	cfg, _ := pathfinder.Build(p)
	paths, err := cfg.Search(pathfinder.Spec{
		Observed: observed,
		Entry:    p.MustSymbol("entry"),
		Final:    p.MustSymbol("end"),
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := paths[0].BlockSequence(cfg, p.MustSymbol("entry"), p.MustSymbol("end"))
	if len(seq) != 3 {
		t.Fatalf("block sequence %v, want entry/loop/end", seq)
	}
	if cfg.Dump() == "" {
		t.Fatal("empty CFG dump")
	}
}

func TestCFGBlocks(t *testing.T) {
	p := mustAssemble(t, func(a *isa.Assembler) {
		a.Label("entry")
		a.MovI(isa.R1, 1)
		a.Br(isa.EQ, isa.R1, isa.R1, "tgt")
		a.Nop()
		a.Label("tgt")
		a.Halt()
	})
	cfg, err := pathfinder.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Blocks) != 3 {
		t.Fatalf("want 3 blocks, got %d:\n%s", len(cfg.Blocks), cfg.Dump())
	}
	b, ok := cfg.BlockAt(p.MustSymbol("entry") + 1)
	if !ok || b.Start != p.MustSymbol("entry") {
		t.Fatal("BlockAt mid-block failed")
	}
}

func TestSearchRequiresObserved(t *testing.T) {
	p := mustAssemble(t, func(a *isa.Assembler) {
		a.Label("e")
		a.Halt()
	})
	cfg, _ := pathfinder.Build(p)
	if _, err := cfg.Search(pathfinder.Spec{}); err == nil {
		t.Fatal("nil Observed accepted")
	}
}

func TestEdgesToCatalog(t *testing.T) {
	p := mustAssemble(t, func(a *isa.Assembler) {
		a.Label("entry")
		a.Jmp("x")
		a.Label("mid")
		a.Br(isa.EQ, isa.R1, isa.R2, "x")
		a.Label("x")
		a.Halt()
	})
	cfg, _ := pathfinder.Build(p)
	edges := cfg.EdgesTo(p.MustSymbol("x"))
	if len(edges) != 2 {
		t.Fatalf("want 2 edges to x, got %d", len(edges))
	}
}

func TestSearchDAGRejectsHistoryPastTheKey(t *testing.T) {
	p := loopProg(t, 0x2000, 5)
	observed, _ := runTraced(t, p, "entry", nil)
	cfg, _ := pathfinder.Build(p)
	spec := pathfinder.Spec{
		Observed: observed, Entry: p.MustSymbol("entry"), Final: p.MustSymbol("end"),
		MaxReversals: 8,
	}
	// A state key has 18 bits for the reversal count, which reaches the
	// history's length once a search exhausts it.
	spec.Ext = make([]phr.Doublet, 1<<18-observed.Size())
	if _, err := cfg.SearchDAG(spec); err == nil {
		t.Fatal("search over 2^18 history doublets accepted")
	}
	spec.Ext = spec.Ext[1:]
	if _, err := cfg.SearchDAG(spec); err != nil {
		t.Fatal(err)
	}
}

func TestSearchDAGRejectsUnderivableEdges(t *testing.T) {
	p := ladderProg(t)
	observed, _ := runTraced(t, p, "entry", ladderSetup)
	bit, join := p.MustSymbol("bit"), p.MustSymbol("join")
	for name, add := range map[string]func(c *pathfinder.CFG){
		// The search derives a taken edge's kind from its instruction and
		// reads a same-depth edge out of a conditional branch as its
		// fallthrough.
		"jump edge from a conditional branch": func(c *pathfinder.CFG) { c.AddIndirectTargets(bit, join) },
		"transfer from a conditional branch":  func(c *pathfinder.CFG) { c.AddTransfer(bit, join) },
	} {
		cfg, _ := pathfinder.Build(p)
		add(cfg)
		spec := pathfinder.Spec{Observed: observed, Entry: p.MustSymbol("entry"), Final: p.MustSymbol("end")}
		if _, err := cfg.SearchDAG(spec); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
