package pathfinder_test

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"pathfinder/internal/aes"
	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
	"pathfinder/internal/isa"
	"pathfinder/internal/jpeg"
	"pathfinder/internal/media"
	"pathfinder/internal/pathfinder"
	"pathfinder/internal/phr"
	"pathfinder/internal/victim"
)

// This file keeps the pointer-linked backward search that the arena search
// of search.go replaced, unchanged apart from renames, as the reference the
// differential test and fuzzer below hold the arena search to.

// refNode is one deduplicated backward-search state: the working register
// after R reversals, positioned at an instruction. States reached along
// different histories merge here, turning the search tree into a DAG and
// keeping systematically ambiguous programs (repeated blocks, colliding
// footprints) tractable.
type refNode struct {
	Addr uint64   // instruction address of this state
	Reg  *phr.Reg // PHR value at this execution point
	R    int      // reversals between here and the final state
	// Succs lead forward in time toward the final state, annotated with
	// the branch event between the nodes (HasStep false = plain
	// fallthrough). A node has at most two successors, and then only at a
	// conditional branch: its taken and not-taken continuations.
	Succs []refDAGEdge
	// Preds lead backward in time: every observation-consistent way this
	// state could have been reached.
	Preds []refPredEdge
	// Complete marks a node at the entry with a verified zero start.
	Complete bool
	// Alive marks nodes from which the backward walk can still reach a
	// truncation point or a verified entry; dead branches are search
	// hypotheses that ran out of consistent predecessors.
	Alive bool

	idx       int
	truncated bool
}

// refDAGEdge is a forward edge of the search DAG.
type refDAGEdge struct {
	To      *refNode
	Step    pathfinder.Step
	HasStep bool
}

// refPredEdge is a backward edge of the search DAG.
type refPredEdge struct {
	From    *refNode // the earlier state
	Step    pathfinder.Step
	HasStep bool
}

// refDAG is the full result of a backward search: every observation-consistent
// execution suffix, shared-substructure-compressed. Terminals are the
// verified entry states (complete recoveries); Deepest is the best
// truncated state when no terminal exists.
type refDAG struct {
	Root      *refNode // the final state the search started from
	Terminals []*refNode
	Deepest   *refNode
}

type refStateKey struct {
	idx int
	reg [7]uint64
	r   int
}

type refSearcher struct {
	c     *pathfinder.CFG
	spec  pathfinder.Spec
	nodes map[refStateKey]*refNode
	queue []*refNode

	terminals []*refNode // complete entry states
	deepest   *refNode   // dead-end state with the most reversals
}

// refSearch recovers the execution paths consistent with the observed PHR.
// Most programs yield exactly one complete path (§6); crafted ambiguity,
// footprint collisions or exhausted history windows can yield several or
// incomplete ones.
func refSearch(c *pathfinder.CFG, spec pathfinder.Spec) ([]pathfinder.Path, error) {
	if spec.MaxPaths == 0 {
		spec.MaxPaths = 16
	}
	dag, err := refSearchDAG(c, spec)
	if err != nil {
		return nil, err
	}
	s := &refSearcher{spec: spec}
	if len(dag.Terminals) > 0 {
		return s.reconstruct(dag.Terminals, true), nil
	}
	if dag.Deepest != nil {
		return s.reconstruct([]*refNode{dag.Deepest}, false), nil
	}
	return nil, nil
}

// refSearchDAG runs the backward search and returns the full state DAG, for
// callers (like Extended Read PHR) that resolve ambiguity with additional
// side-channel measurements rather than path enumeration.
func refSearchDAG(c *pathfinder.CFG, spec pathfinder.Spec) (*refDAG, error) {
	if spec.Observed == nil {
		return nil, fmt.Errorf("pathfinder: Spec.Observed required")
	}
	if spec.MaxNodes == 0 {
		spec.MaxNodes = 4 << 20
	}
	if spec.MaxPaths == 0 {
		spec.MaxPaths = 16
	}
	s := &refSearcher{c: c, spec: spec, nodes: make(map[refStateKey]*refNode)}
	idx, ok := c.Prog.IndexOf(spec.Final)
	if !ok {
		return nil, fmt.Errorf("pathfinder: final position %#x is not an instruction", spec.Final)
	}
	root := &refNode{Addr: spec.Final, idx: idx, Reg: spec.Observed.Clone()}
	s.nodes[refStateKey{idx: idx, reg: root.Reg.Words()}] = root
	s.queue = append(s.queue, root)
	for qi := 0; qi < len(s.queue); qi++ {
		if len(s.nodes) > spec.MaxNodes {
			return nil, fmt.Errorf("pathfinder: search exceeded %d states", spec.MaxNodes)
		}
		s.expand(s.queue[qi])
	}
	s.markAlive()
	return &refDAG{Root: root, Terminals: s.terminals, Deepest: s.deepest}, nil
}

// known returns how many doublets of the working register are still
// trustworthy after r reversals.
func (s *refSearcher) known(r int) int {
	n := s.spec.Observed.Size()
	over := r - len(s.spec.Ext)
	if over > 0 {
		n -= over
	}
	return n
}

// zeroKnown reports whether the working register is consistent with the
// cleared-PHR start after r reversals. Position p of the register is
// trustworthy unless it was refilled by a reversal whose shifted-out
// doublet is genuinely unknown: refill r' lands at position size-r+r', is
// oracle-verified for r' < len(Ext), and is *provably zero under this
// path hypothesis* once its history position exceeds the last branch's
// footprint reach (positions >= FootprintDoublets). Only the window
// [size-r+len(Ext), FootprintDoublets) is unverifiable; Extended Read PHR
// keeps that window empty before accepting a path.
func (s *refSearcher) zeroKnown(reg *phr.Reg, r int) bool {
	n := s.spec.Observed.Size()
	lo := n - r + len(s.spec.Ext) // first untrusted refill position
	for p := 0; p < n; p++ {
		if p >= lo && p < phr.FootprintDoublets {
			continue // genuinely unknown refill; not checkable
		}
		if reg.Doublet(p) != 0 {
			return false
		}
	}
	return true
}

// link records that predecessor state (idx, reg, r) leads to node via step,
// creating and enqueueing the predecessor when first seen.
func (s *refSearcher) link(node *refNode, idx int, reg *phr.Reg, r int, step pathfinder.Step, hasStep bool) {
	key := refStateKey{idx: idx, reg: reg.Words(), r: r}
	pred, ok := s.nodes[key]
	if !ok {
		pred = &refNode{Addr: s.c.Prog.Instrs[idx].Addr, idx: idx, Reg: reg, R: r}
		s.nodes[key] = pred
		pos := pred.Addr
		if pos == s.spec.Entry {
			// A path is complete only when every refill it used was
			// verified: refills beyond Ext are sound only where the history
			// position provably precedes the first taken branch (cleared
			// PHR), bounding the reversal count.
			verifiable := r <= len(s.spec.Ext)+s.spec.Observed.Size()-phr.FootprintDoublets
			if verifiable && s.zeroKnown(reg, r) {
				pred.Complete = true
				s.terminals = append(s.terminals, pred)
			}
		}
		if !pred.Complete {
			s.queue = append(s.queue, pred)
		}
	}
	pred.Succs = append(pred.Succs, refDAGEdge{To: node, Step: step, HasStep: hasStep})
	node.Preds = append(node.Preds, refPredEdge{From: pred, Step: step, HasStep: hasStep})
}

// expand enumerates the possible predecessors of a state.
func (s *refSearcher) expand(node *refNode) {
	r := node.R
	if s.known(r) <= 0 || (s.spec.MaxReversals > 0 && r >= s.spec.MaxReversals) {
		// History exhausted or lookahead bound: candidate truncation point.
		node.truncated = true
		if s.deepest == nil || r > s.deepest.R {
			s.deepest = node
		}
		return
	}
	pos := node.Addr

	// Arrival by a taken branch.
	for _, e := range s.c.EdgesTo(pos) {
		if phr.Doublet(e.Footprint&3) != node.Reg.Doublet(0) {
			continue // the paper's lowest-doublet pruning
		}
		fromIdx, ok := s.c.Prog.IndexOf(e.From)
		if !ok {
			continue
		}
		next := node.Reg.Clone()
		var top phr.Doublet
		if r < len(s.spec.Ext) {
			top = s.spec.Ext[r]
		}
		next.ReverseUpdate(e.Footprint, top)
		s.link(node, fromIdx, next, r+1, pathfinder.Step{
			Addr: e.From, Target: pos, Taken: true,
			Conditional: e.Kind == pathfinder.EdgeCondTaken, Kind: e.Kind,
		}, true)
	}

	// Arrival by a SYSCALL/EENTER transfer (not PHR-visible).
	for _, from := range s.c.TransfersTo(pos) {
		if idx, ok := s.c.Prog.IndexOf(from); ok {
			s.link(node, idx, node.Reg, r, pathfinder.Step{}, false)
		}
	}

	// Arrival by falling through from the previous instruction.
	if node.idx > 0 {
		prev := &s.c.Prog.Instrs[node.idx-1]
		switch prev.Op {
		case isa.JMP, isa.CALL, isa.RET, isa.JR, isa.HALT, isa.SYSCALL, isa.EENTER:
			// cannot fall through
		case isa.BR:
			s.link(node, node.idx-1, node.Reg, r, pathfinder.Step{Addr: prev.Addr, Taken: false, Conditional: true}, true)
		default:
			s.link(node, node.idx-1, node.Reg, r, pathfinder.Step{}, false)
		}
	}
}

// markAlive flags every node that can reach a truncation point or a
// complete entry state by walking predecessors, by propagating aliveness
// forward along successor edges from those anchor nodes.
func (s *refSearcher) markAlive() {
	var stack []*refNode
	for _, n := range s.nodes {
		if n.truncated || n.Complete {
			n.Alive = true
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Succs {
			if !e.To.Alive {
				e.To.Alive = true
				stack = append(stack, e.To)
			}
		}
	}
}

// reconstruct enumerates forward paths from the given start nodes through
// the successor DAG, up to MaxPaths.
func (s *refSearcher) reconstruct(starts []*refNode, complete bool) []pathfinder.Path {
	var out []pathfinder.Path
	var steps []pathfinder.Step
	var walk func(n *refNode)
	walk = func(n *refNode) {
		if len(out) >= s.spec.MaxPaths {
			return
		}
		if len(n.Succs) == 0 {
			cp := make([]pathfinder.Step, len(steps))
			copy(cp, steps)
			out = append(out, pathfinder.Path{Steps: cp, Complete: complete})
			return
		}
		for _, e := range n.Succs {
			if e.HasStep {
				steps = append(steps, e.Step)
			}
			walk(e.To)
			if e.HasStep {
				steps = steps[:len(steps)-1]
			}
		}
	}
	for _, st := range starts {
		if len(out) >= s.spec.MaxPaths {
			break
		}
		walk(st)
	}
	return out
}

// stateID names a search state independently of either implementation.
type stateID struct {
	addr uint64
	r    int
	reg  [7]uint64
}

func refState(n *refNode) stateID { return stateID{addr: n.Addr, r: n.R, reg: n.Reg.Words()} }

// edgeView is one DAG edge as seen from its owner: the state at the other
// end and the branch event between them.
type edgeView struct {
	other   stateID
	step    pathfinder.Step
	hasStep bool
}

func (e edgeView) String() string {
	return fmt.Sprintf("{%#x R=%d step=%v/%v}", e.other.addr, e.other.r, e.step, e.hasStep)
}

// checkSearch runs the arena search and the reference on spec and fails t
// on any difference: the error, Terminals and Deepest, the paths Search
// returns, every stored state's flags and edges against the reference's
// once the reference's walked states are contracted, and whether the
// search fits at a few MaxNodes caps.
func checkSearch(t testing.TB, cfg *pathfinder.CFG, spec pathfinder.Spec) {
	t.Helper()
	ref, refErr := refSearchDAG(cfg, spec)
	dag, err := cfg.SearchDAG(spec)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("SearchDAG error %v, reference %v", err, refErr)
	}
	if err != nil {
		return
	}
	states := map[pathfinder.NodeID]stateID{}
	dagState := func(n pathfinder.NodeID) stateID {
		st, ok := states[n]
		if !ok {
			st = stateID{addr: dag.Addr(n), r: dag.R(n), reg: dag.Reg(n).Words()}
			states[n] = st
		}
		return st
	}

	// Every stored state is reachable from the root over predecessors.
	ids := map[stateID]pathfinder.NodeID{dagState(dag.Root): dag.Root}
	for queue := []pathfinder.NodeID{dag.Root}; len(queue) > 0; queue = queue[1:] {
		for _, e := range dag.Preds(queue[0]) {
			st := dagState(e.Node)
			if id, ok := ids[st]; ok {
				if id != e.Node {
					t.Fatalf("state %#x R=%d stored as %d and %d", st.addr, st.r, id, e.Node)
				}
				continue
			}
			ids[st] = e.Node
			queue = append(queue, e.Node)
		}
	}
	refNodes := []*refNode{ref.Root}
	seen := map[*refNode]bool{ref.Root: true}
	for i := 0; i < len(refNodes); i++ {
		for _, e := range refNodes[i].Preds {
			if !seen[e.From] {
				seen[e.From] = true
				refNodes = append(refNodes, e.From)
			}
		}
	}
	stored := func(n *refNode) bool { _, ok := ids[refState(n)]; return ok }
	nStored := 0
	for _, n := range refNodes {
		if stored(n) {
			nStored++
			continue
		}
		// A state the arena walks without storing must be one that can never
		// merge: a single successor reached by plain fallthrough, at most one
		// predecessor, and neither an anchor nor a terminal.
		if len(n.Succs) != 1 || n.Succs[0].HasStep || len(n.Preds) > 1 || n.Complete || n.truncated {
			t.Fatalf("unstored state at %#x R=%d: %d succs, %d preds, complete=%v truncated=%v",
				n.Addr, n.R, len(n.Succs), len(n.Preds), n.Complete, n.truncated)
		}
	}
	if nStored != len(ids) {
		t.Fatalf("arena stores %d states, %d of them in the reference", len(ids), nStored)
	}

	if len(dag.Terminals) != len(ref.Terminals) {
		t.Fatalf("%d terminals, reference %d", len(dag.Terminals), len(ref.Terminals))
	}
	for i, term := range ref.Terminals {
		if dagState(dag.Terminals[i]) != refState(term) {
			t.Fatalf("terminal %d differs from the reference", i)
		}
	}
	if (dag.Deepest == pathfinder.NoNode) != (ref.Deepest == nil) ||
		ref.Deepest != nil && dagState(dag.Deepest) != refState(ref.Deepest) {
		t.Fatalf("Deepest differs from the reference")
	}

	for _, n := range refNodes {
		id, ok := ids[refState(n)]
		if !ok {
			continue
		}
		if dag.Alive(id) != n.Alive || dag.Complete(id) != n.Complete {
			t.Fatalf("state %#x R=%d: alive=%v complete=%v, reference %v %v",
				n.Addr, n.R, dag.Alive(id), dag.Complete(id), n.Alive, n.Complete)
		}
		var wantPreds, wantSuccs, gotPreds, gotSuccs []edgeView
		for _, e := range n.Preds {
			// Follow walked states down to the stored state whose step the
			// contracted edge carries; a walk that dead-ends leaves no edge.
			from, step, has := e.From, e.Step, e.HasStep
			for from != nil && !stored(from) {
				if len(from.Preds) == 0 {
					from = nil
					break
				}
				p := from.Preds[0]
				from, step, has = p.From, p.Step, p.HasStep
			}
			if from != nil {
				wantPreds = append(wantPreds, edgeView{refState(from), step, has})
			}
		}
		for _, e := range n.Succs {
			to := e.To
			for !stored(to) {
				to = to.Succs[0].To
			}
			wantSuccs = append(wantSuccs, edgeView{refState(to), e.Step, e.HasStep})
		}
		for _, e := range dag.Preds(id) {
			gotPreds = append(gotPreds, edgeView{dagState(e.Node), e.Step, e.HasStep})
		}
		for _, e := range dag.Succs(id) {
			gotSuccs = append(gotSuccs, edgeView{dagState(e.Node), e.Step, e.HasStep})
		}
		if !slices.Equal(gotPreds, wantPreds) {
			t.Fatalf("preds of %#x R=%d:\n got %v\nwant %v", n.Addr, n.R, gotPreds, wantPreds)
		}
		if !slices.Equal(gotSuccs, wantSuccs) {
			t.Fatalf("succs of %#x R=%d:\n got %v\nwant %v", n.Addr, n.R, gotSuccs, wantSuccs)
		}
	}

	paths, err := cfg.Search(spec)
	refPaths, refErr := refSearch(cfg, spec)
	if err != nil || refErr != nil || !reflect.DeepEqual(paths, refPaths) {
		t.Fatalf("Search returned %d paths (err %v), reference %d (err %v)", len(paths), err, len(refPaths), refErr)
	}

	// The cap counts walked states too, so both searches stop at the same
	// point.
	total := len(refNodes)
	for _, limit := range []int{total / 2, total - 1, total} {
		capped := spec
		capped.MaxNodes = limit
		_, err := cfg.SearchDAG(capped)
		_, refErr := refSearchDAG(cfg, capped)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("MaxNodes=%d: error %v, reference %v", limit, err, refErr)
		}
	}
}

// captureCase captures v's PHR window on m in the canonical capture
// context, tracing every taken branch, and returns the capture program's
// CFG (with v's transfers registered in label order), a search spec
// anchored at the call site, and the ground-truth extension doublets.
func captureCase(t testing.TB, m *cpu.Machine, v core.Victim) (*pathfinder.CFG, pathfinder.Spec, []phr.Doublet) {
	t.Helper()
	prog, err := core.BuildCaptureProgram(m, v)
	if err != nil {
		t.Fatal(err)
	}
	var fps []uint16
	m.TraceTaken = func(pc, target uint64) { fps = append(fps, phr.Footprint(pc, target)) }
	window, err := core.CaptureVictimPHR(m, v)
	m.TraceTaken = nil
	if err != nil {
		t.Fatal(err)
	}
	virt := virtualHistory(fps)
	for i := 0; i < window.Size(); i++ {
		if window.Doublet(i) != virt[i] {
			t.Fatalf("traced history differs from the captured window at doublet %d", i)
		}
	}
	cfg, err := pathfinder.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range slices.Sorted(maps.Keys(v.Transfers)) {
		cfg.AddTransfer(prog.MustSymbol(from), prog.MustSymbol(v.Transfers[from]))
	}
	entry := prog.MustSymbol("cap_call")
	spec := pathfinder.Spec{Observed: window, Entry: entry, Final: entry + 1}
	return cfg, spec, extFrom(virt, window.Size())
}

// checkCapture holds the two searches to each other on a captured victim,
// without an extension and with the ground-truth one, both with the given
// lookahead bound (MaxReversals; 0 for none).
func checkCapture(t testing.TB, m *cpu.Machine, v core.Victim, lookahead int) {
	t.Helper()
	cfg, spec, ext := captureCase(t, m, v)
	spec.MaxReversals = lookahead
	checkSearch(t, cfg, spec)
	spec.Ext = ext
	checkSearch(t, cfg, spec)
}

// idctBlocks returns the DCT blocks of test-set image qr-2 at 16 px and
// JPEG quality 60.
func idctBlocks(t testing.TB) []jpeg.Block {
	t.Helper()
	for _, e := range media.TestSet(16) {
		if e.Name != "qr-2" {
			continue
		}
		enc, err := jpeg.Encode(e.Image.Pix, e.Image.W, e.Image.H, 60)
		if err != nil {
			t.Fatal(err)
		}
		_, blocks, err := jpeg.DecodeBlocks(enc)
		if err != nil {
			t.Fatal(err)
		}
		return blocks
	}
	t.Fatal("test set has no image qr-2")
	return nil
}

// twoSyscallVictim enters one kernel handler from two SYSCALL sites; the
// handler branches on which site entered it.
func twoSyscallVictim() (*cpu.Machine, core.Victim) {
	m := cpu.New(cpu.Options{Seed: 71})
	m.RegisterKernelStub(1, "ks_handler")
	return m, core.Victim{
		Entry: "ks_entry",
		Emit: func(a *isa.Assembler) {
			a.Label("ks_entry")
			a.MovI(isa.R1, 0)
			a.MovI(isa.R2, 1)
			a.Label("ks_sys1")
			a.Syscall(1)
			a.AddI(isa.R1, isa.R1, 1)
			a.Label("ks_sys2")
			a.Syscall(1)
			a.Ret()
			victim.EmitKernelStub(a, "ks_handler", func(a *isa.Assembler) {
				a.Br(isa.EQ, isa.R1, isa.R2, "ks_second")
				a.Nop()
				a.Label("ks_second")
			})
		},
		Transfers: map[string]string{"ks_sys1": "ks_handler", "ks_sys2": "ks_handler"},
	}
}

func TestSearchDAGMatchesReference(t *testing.T) {
	t.Run("unit", func(t *testing.T) {
		for _, up := range unitPrograms(t) {
			observed, virt := runTraced(t, up.prog, "entry", up.setup)
			cfg, err := pathfinder.Build(up.prog)
			if err != nil {
				t.Fatal(err)
			}
			spec := pathfinder.Spec{Observed: observed, Entry: up.prog.MustSymbol("entry"), Final: up.prog.MustSymbol("end")}
			checkSearch(t, cfg, spec)
			spec.Ext = extFrom(virt, observed.Size())
			checkSearch(t, cfg, spec)
		}
	})
	for seed := int64(23); seed <= 28; seed++ {
		t.Run(fmt.Sprintf("randomcfg-%d", seed), func(t *testing.T) {
			checkCapture(t, cpu.New(cpu.Options{Seed: seed}), victim.RandomCFG(seed, 8), 0)
		})
	}
	// The IDCT searches look 32 reversals ahead. With the full window that
	// Extended Read PHR looks ahead, a search holds one to two million
	// states, too many to check edge by edge here (BenchmarkSearchDAG runs
	// that size). At 32 they keep 12k to 33k states.
	blocks := idctBlocks(t)
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("idct-%d", n), func(t *testing.T) {
			checkCapture(t, cpu.New(cpu.Options{Seed: 1}), victim.IDCTVictim(n, blocks[:n]), 32)
		})
	}
	t.Run("aes", func(t *testing.T) {
		ctx, err := victim.NewAESContext([]byte("pathfinder-key-0"))
		if err != nil {
			t.Fatal(err)
		}
		m := cpu.New(cpu.Options{Seed: 1})
		ctx.SetPlaintext(m, aes.Block{})
		v := victim.AESVictim()
		v.Setup = ctx.Install
		checkCapture(t, m, v, 0)
	})
	t.Run("loop-250", func(t *testing.T) {
		const trips = 250
		cfg, spec, ext := captureCase(t, cpu.New(cpu.Options{Seed: 1}),
			victim.PatternedLoop(trips, victim.RandomPattern(trips, 7)))
		spec.Ext = ext
		checkSearch(t, cfg, spec)
	})
	t.Run("two-syscalls", func(t *testing.T) {
		m, v := twoSyscallVictim()
		checkCapture(t, m, v, 0)
	})
}

// FuzzSearchDAGVsReference holds the arena search to the reference on
// random control-flow graphs, with and without the ground-truth extension.
func FuzzSearchDAGVsReference(f *testing.F) {
	for seed := int64(23); seed <= 28; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, segments uint8) {
		checkCapture(t, cpu.New(cpu.Options{Seed: 1}), victim.RandomCFG(seed, 2+int(segments%10)), 0)
	})
}
