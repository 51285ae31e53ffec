package pathfinder

import (
	"fmt"
	"slices"
	"strings"

	"pathfinder/internal/isa"
	"pathfinder/internal/phr"
)

// Step is one recovered branch event, in execution order.
type Step struct {
	Addr        uint64
	Target      uint64 // meaningful when Taken
	Taken       bool
	Conditional bool
	Kind        EdgeKind // for taken steps
}

func (s Step) String() string {
	dir := "T"
	if !s.Taken {
		dir = "N"
	}
	if s.Conditional {
		return fmt.Sprintf("%#x:%s", s.Addr, dir)
	}
	return fmt.Sprintf("%#x:%s->%#x", s.Addr, s.Kind, s.Target)
}

// Path is one execution history consistent with the observed PHR.
type Path struct {
	Steps []Step
	// Complete is true when the path reaches the entry with the whole known
	// history window accounted for (an all-zero remainder, matching the
	// cleared-PHR start of the capture protocol).
	Complete bool
}

// Outcomes returns the ordered conditional-branch outcomes of the path —
// the per-instance taken/not-taken stream the paper highlights as
// unavailable to PHT-only attacks.
func (p Path) Outcomes() []Step {
	var out []Step
	for _, s := range p.Steps {
		if s.Conditional {
			out = append(out, s)
		}
	}
	return out
}

// VisitCount returns how many times the branch at addr executed (any
// direction) along the path.
func (p Path) VisitCount(addr uint64) int {
	n := 0
	for _, s := range p.Steps {
		if s.Addr == addr {
			n++
		}
	}
	return n
}

// TakenCount returns how many times the branch at addr was taken.
func (p Path) TakenCount(addr uint64) int {
	n := 0
	for _, s := range p.Steps {
		if s.Addr == addr && s.Taken {
			n++
		}
	}
	return n
}

// BlockSequence maps the path to the basic blocks visited between entry and
// final, collapsing consecutive duplicates — the Figure 6 view. Use
// Path.VisitCount / TakenCount for loop trip counts.
func (p Path) BlockSequence(c *CFG, entry, final uint64) []int {
	var seq []int
	push := func(addr uint64) {
		if b, ok := c.BlockAt(addr); ok {
			if len(seq) == 0 || seq[len(seq)-1] != b.ID {
				seq = append(seq, b.ID)
			}
		}
	}
	push(entry)
	for _, s := range p.Steps {
		push(s.Addr)
		if s.Taken {
			push(s.Target)
		}
	}
	push(final)
	return seq
}

func (p Path) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "path(%d steps, complete=%v):", len(p.Steps), p.Complete)
	for _, s := range p.Steps {
		b.WriteByte(' ')
		b.WriteString(s.String())
	}
	return b.String()
}

// Spec describes one path-recovery problem.
type Spec struct {
	// Observed is the PHR window recovered by Read_PHR (doublet 0 most
	// recent).
	Observed *phr.Reg
	// Ext holds doublets beyond the window from Extended_Read_PHR:
	// Ext[0] is the first doublet shifted out (history position Size),
	// Ext[1] the next older one, and so on.
	Ext []phr.Doublet
	// Entry is the victim's entry address; recovery stops there.
	Entry uint64
	// Final is the address at which execution ended: the instruction after
	// the last executed one (a return pad, HALT, or the final RET itself).
	Final uint64
	// MaxNodes caps the search (default 4M states).
	MaxNodes int
	// MaxPaths caps how many paths are returned (default 16).
	MaxPaths int
	// MaxReversals, when positive, stops each search branch after that many
	// taken-branch reversals and emits the (incomplete) suffix. The
	// Extended Read PHR driver uses this as a bounded lookahead.
	MaxReversals int
}

// NodeID names one stored state of a search DAG.
type NodeID int32

// NoNode is the NodeID of no state: DAG.Deepest when no state truncated.
const NoNode NodeID = -1

// Edge is one edge of the search DAG seen from one of its ends. Node is the
// state at the other end: the earlier state in a Preds list, the later one
// in a Succs list. Step is the branch event between the two states
// (HasStep false = plain fallthrough or a PHR-invisible transfer).
type Edge struct {
	Node    NodeID
	Step    Step
	HasStep bool
}

// node is one deduplicated backward-search state: the working register
// after r reversals, positioned at instruction idx. States reached along
// different histories merge here, turning the search tree into a DAG and
// keeping systematically ambiguous programs (repeated blocks, colliding
// footprints) tractable. A node holds no pointer, so the garbage collector
// never scans a search's arena.
type node struct {
	reg       [7]uint64 // phr.Reg.Words of the register at this point
	idx       int32     // instruction index
	r         int32     // reversals between here and the final state
	complete  bool
	alive     bool
	truncated bool
}

// DAG is the full result of a backward search: every observation-consistent
// execution suffix, shared-substructure-compressed. Terminals are the
// verified entry states (complete recoveries); Deepest is the best
// truncated state when no terminal exists.
//
// The DAG stores only states that can merge. A state at an instruction
// reached only by falling through from the instruction after it (see
// walkedInstrs) has one successor and at most one predecessor, so the
// search walks it without storing it: the edge from the nearest stored
// state before a run of such states leads straight to the stored state
// after the run, carrying the earlier state's step.
type DAG struct {
	Root      NodeID   // the final state the search started from
	Terminals []NodeID // verified entry states, in discovery order
	Deepest   NodeID   // truncated state with the most reversals, or NoNode

	prog  *isa.Program
	size  int // register size in doublets
	nodes []node
	// Edges in compressed sparse row form: the predecessors of node n are
	// preds[predOff[n]:predOff[n+1]], its successors succs[succOff[n]:
	// succOff[n+1]], each list in the order the search linked its edges.
	predOff, succOff []int32
	preds, succs     []Edge
}

// Preds lists the edges back in time from state n: every
// observation-consistent way n could have been reached.
func (d *DAG) Preds(n NodeID) []Edge { return d.preds[d.predOff[n]:d.predOff[n+1]] }

// Succs lists the edges forward in time from state n toward the final
// state. A state has several only where control could have gone several
// ways: a conditional branch's taken and not-taken continuations, or the
// targets of a return or an indirect jump.
func (d *DAG) Succs(n NodeID) []Edge { return d.succs[d.succOff[n]:d.succOff[n+1]] }

// Addr returns the instruction address of state n.
func (d *DAG) Addr(n NodeID) uint64 { return d.prog.Instrs[d.nodes[n].idx].Addr }

// R returns the number of taken-branch reversals between state n and the
// final state.
func (d *DAG) R(n NodeID) int { return int(d.nodes[n].r) }

// Reg returns a fresh copy of the PHR value at state n.
func (d *DAG) Reg(n NodeID) *phr.Reg {
	reg := phr.New(d.size)
	reg.SetWords(d.nodes[n].reg)
	return reg
}

// Complete reports whether n is an entry state with a verified zero start.
func (d *DAG) Complete(n NodeID) bool { return d.nodes[n].complete }

// Alive reports whether the backward walk from n can still reach a
// truncation point or a verified entry; dead states are search hypotheses
// that ran out of consistent predecessors.
func (d *DAG) Alive(n NodeID) bool { return d.nodes[n].alive }

type stateKey struct {
	reg [7]uint64
	idx int32
	r   int32
}

// item is one queued state to expand. With idx negative it is the stored
// state node; otherwise it is the walked state at instruction idx, which
// falls through (directly or via other walked states) into the stored
// state node and so shares its register and reversal count.
type item struct {
	node NodeID
	idx  int32
}

// link is one edge as the search found it; freeze lays the links out per
// node.
type link struct {
	from, to NodeID
	step     Step
	hasStep  bool
}

type searcher struct {
	c      *CFG
	spec   Spec
	reg    *phr.Reg // scratch register for reversals and entry checks
	entry  int32    // instruction index of spec.Entry, or -1
	walked []bool   // per instruction: walkedInstrs
	nodes  []node
	index  map[stateKey]NodeID
	links  []link
	queue  []item
	states int // stored plus walked states: what MaxNodes caps

	terminals []NodeID // complete entry states
	deepest   NodeID   // truncated state with the most reversals
}

// Search recovers the execution paths consistent with the observed PHR.
// Most programs yield exactly one complete path (§6); crafted ambiguity,
// footprint collisions or exhausted history windows can yield several or
// incomplete ones.
func (c *CFG) Search(spec Spec) ([]Path, error) {
	if spec.MaxPaths == 0 {
		spec.MaxPaths = 16
	}
	dag, err := c.SearchDAG(spec)
	if err != nil {
		return nil, err
	}
	if len(dag.Terminals) > 0 {
		return dag.paths(dag.Terminals, true, spec.MaxPaths), nil
	}
	if dag.Deepest != NoNode {
		return dag.paths([]NodeID{dag.Deepest}, false, spec.MaxPaths), nil
	}
	return nil, nil
}

// SearchDAG runs the backward search and returns the full state DAG, for
// callers (like Extended Read PHR) that resolve ambiguity with additional
// side-channel measurements rather than path enumeration.
func (c *CFG) SearchDAG(spec Spec) (*DAG, error) {
	if spec.Observed == nil {
		return nil, fmt.Errorf("pathfinder: Spec.Observed required")
	}
	if spec.MaxNodes == 0 {
		spec.MaxNodes = 4 << 20
	}
	final, ok := c.Prog.IndexOf(spec.Final)
	if !ok {
		return nil, fmt.Errorf("pathfinder: final position %#x is not an instruction", spec.Final)
	}
	s := &searcher{
		c:       c,
		spec:    spec,
		reg:     spec.Observed.Clone(),
		entry:   -1,
		index:   make(map[stateKey]NodeID),
		deepest: NoNode,
	}
	if entry, ok := c.Prog.IndexOf(spec.Entry); ok {
		s.entry = int32(entry)
	}
	s.walked = c.walkedInstrs(s.entry, final)
	root := s.add(int32(final), spec.Observed.Words(), 0)
	s.queue = append(s.queue, item{node: root, idx: -1})
	for qi := 0; qi < len(s.queue); qi++ {
		if s.states > spec.MaxNodes {
			return nil, fmt.Errorf("pathfinder: search exceeded %d states", spec.MaxNodes)
		}
		s.expand(s.queue[qi])
	}
	return s.freeze(root), nil
}

// walkedInstrs marks the instructions whose states the search walks
// without storing: those reached only by falling through from the
// instruction after them. No taken edge or transfer arrives at or leaves
// from such an instruction, and it is not a control instruction, the entry
// or the final instruction. A state there is created only by the state
// after it, with that state's register and reversal count, so it can never
// merge with another state.
func (c *CFG) walkedInstrs(entry int32, final int) []bool {
	p := c.Prog
	walked := make([]bool, len(p.Instrs))
	for i := range p.Instrs {
		walked[i] = !p.Instrs[i].IsControl()
	}
	unmark := func(addr uint64) {
		if i, ok := p.IndexOf(addr); ok {
			walked[i] = false
		}
	}
	for to, edges := range c.edgesTo {
		unmark(to)
		for _, e := range edges {
			unmark(e.From)
		}
	}
	for to, froms := range c.transfersTo {
		unmark(to)
		for _, from := range froms {
			unmark(from)
		}
	}
	if entry >= 0 {
		walked[entry] = false
	}
	walked[final] = false
	return walked
}

// known returns how many doublets of the working register are still
// trustworthy after r reversals.
func (s *searcher) known(r int) int {
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
// [size-r+len(Ext), FootprintDoublets) is unverifiable; the Extended Read
// driver keeps that window empty before accepting a path.
func (s *searcher) zeroKnown(reg *phr.Reg, r int) bool {
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

// add stores a new state and returns its id.
func (s *searcher) add(idx int32, reg [7]uint64, r int32) NodeID {
	id := NodeID(len(s.nodes))
	s.nodes = push(s.nodes, node{reg: reg, idx: idx, r: r})
	s.index[stateKey{reg: reg, idx: idx, r: r}] = id
	s.states++
	return id
}

// link records that the predecessor state (idx, reg, r) leads to the
// stored state to via step, creating and enqueueing the predecessor when
// first seen. A predecessor at a walked instruction is only queued, as a
// walk item for to: it gets no state, index entry or edge.
func (s *searcher) link(to NodeID, idx int32, reg [7]uint64, r int32, step Step, hasStep bool) {
	if s.walked[idx] {
		s.states++
		s.queue = push(s.queue, item{node: to, idx: idx})
		return
	}
	from, ok := s.index[stateKey{reg: reg, idx: idx, r: r}]
	if !ok {
		from = s.add(idx, reg, r)
		if idx == s.entry {
			// A path is complete only when every refill it used was
			// verified: refills beyond Ext are sound only where the history
			// position provably precedes the first taken branch (cleared
			// PHR), bounding the reversal count.
			verifiable := int(r) <= len(s.spec.Ext)+s.spec.Observed.Size()-phr.FootprintDoublets
			s.reg.SetWords(reg)
			if verifiable && s.zeroKnown(s.reg, int(r)) {
				s.nodes[from].complete = true
				s.terminals = append(s.terminals, from)
			}
		}
		if !s.nodes[from].complete {
			s.queue = push(s.queue, item{node: from, idx: -1})
		}
	}
	s.links = push(s.links, link{from: from, to: to, step: step, hasStep: hasStep})
}

// expand enumerates the possible predecessors of a queued state. A walked
// state skips the truncation check and the taken and transfer arrivals: it
// shares the register and reversal count of the stored state after it,
// which was expanded rather than truncated, and only the fallthrough
// arrives at its instruction.
func (s *searcher) expand(it item) {
	n := s.nodes[it.node] // a copy: link may grow the arena
	idx := it.idx
	if idx < 0 {
		idx = n.idx
		if s.known(int(n.r)) <= 0 || (s.spec.MaxReversals > 0 && int(n.r) >= s.spec.MaxReversals) {
			// History exhausted or lookahead bound: candidate truncation point.
			s.nodes[it.node].truncated = true
			if s.deepest == NoNode || n.r > s.nodes[s.deepest].r {
				s.deepest = it.node
			}
			return
		}
		s.arrivals(it.node, n)
	}

	// Arrival by falling through from the previous instruction.
	if idx > 0 {
		prev := &s.c.Prog.Instrs[idx-1]
		switch prev.Op {
		case isa.JMP, isa.CALL, isa.RET, isa.JR, isa.HALT, isa.SYSCALL, isa.EENTER:
			// cannot fall through
		case isa.BR:
			s.link(it.node, idx-1, n.reg, n.r, Step{Addr: prev.Addr, Taken: false, Conditional: true}, true)
		default:
			s.link(it.node, idx-1, n.reg, n.r, Step{}, false)
		}
	}
}

// arrivals links the predecessors of stored state id (a copy of which is
// n) that arrive by a taken branch or a SYSCALL/EENTER transfer.
func (s *searcher) arrivals(id NodeID, n node) {
	pos := s.c.Prog.Instrs[n.idx].Addr
	var top phr.Doublet
	if int(n.r) < len(s.spec.Ext) {
		top = s.spec.Ext[n.r]
	}
	s.reg.SetWords(n.reg)
	low := s.reg.Doublet(0)

	// Arrival by a taken branch.
	for _, e := range s.c.edgesTo[pos] {
		if phr.Doublet(e.Footprint&3) != low {
			continue // the paper's lowest-doublet pruning
		}
		fromIdx, ok := s.c.Prog.IndexOf(e.From)
		if !ok {
			continue
		}
		s.reg.SetWords(n.reg)
		s.reg.ReverseUpdate(e.Footprint, top)
		s.link(id, int32(fromIdx), s.reg.Words(), n.r+1, Step{
			Addr: e.From, Target: pos, Taken: true,
			Conditional: e.Kind == EdgeCondTaken, Kind: e.Kind,
		}, true)
	}

	// Arrival by a SYSCALL/EENTER transfer (not PHR-visible).
	for _, from := range s.c.transfersTo[pos] {
		if idx, ok := s.c.Prog.IndexOf(from); ok {
			s.link(id, int32(idx), n.reg, n.r, Step{}, false)
		}
	}
}

// push appends v to s, doubling the capacity when s is full. Past a few
// hundred elements append grows a slice by a quarter at a time, which for
// the search's slices of millions of states and edges copies each element
// about four times over.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s))
	}
	return append(s, v)
}

// freeze lays the links out per node, keeping each node's edges in link
// order, and marks aliveness.
func (s *searcher) freeze(root NodeID) *DAG {
	n := len(s.nodes)
	d := &DAG{
		Root:      root,
		Terminals: s.terminals,
		Deepest:   s.deepest,
		prog:      s.c.Prog,
		size:      s.spec.Observed.Size(),
		nodes:     s.nodes,
		predOff:   make([]int32, n+1),
		succOff:   make([]int32, n+1),
		preds:     make([]Edge, len(s.links)),
		succs:     make([]Edge, len(s.links)),
	}
	for _, l := range s.links {
		d.predOff[l.to+1]++
		d.succOff[l.from+1]++
	}
	for i := 1; i <= n; i++ {
		d.predOff[i] += d.predOff[i-1]
		d.succOff[i] += d.succOff[i-1]
	}
	nextPred := slices.Clone(d.predOff[:n])
	nextSucc := slices.Clone(d.succOff[:n])
	for _, l := range s.links {
		d.preds[nextPred[l.to]] = Edge{Node: l.from, Step: l.step, HasStep: l.hasStep}
		nextPred[l.to]++
		d.succs[nextSucc[l.from]] = Edge{Node: l.to, Step: l.step, HasStep: l.hasStep}
		nextSucc[l.from]++
	}
	d.markAlive()
	return d
}

// markAlive flags every state that can reach a truncation point or a
// complete entry state by walking predecessors, by propagating aliveness
// forward along successor edges from those anchor states.
func (d *DAG) markAlive() {
	var stack []NodeID
	for i := range d.nodes {
		if n := &d.nodes[i]; n.truncated || n.complete {
			n.alive = true
			stack = append(stack, NodeID(i))
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range d.Succs(n) {
			if !d.nodes[e.Node].alive {
				d.nodes[e.Node].alive = true
				stack = append(stack, e.Node)
			}
		}
	}
}

// paths enumerates forward paths from the given start states through the
// successor lists, up to limit.
func (d *DAG) paths(starts []NodeID, complete bool, limit int) []Path {
	var out []Path
	var steps []Step
	var walk func(n NodeID)
	walk = func(n NodeID) {
		if len(out) >= limit {
			return
		}
		succs := d.Succs(n)
		if len(succs) == 0 {
			cp := make([]Step, len(steps))
			copy(cp, steps)
			out = append(out, Path{Steps: cp, Complete: complete})
			return
		}
		for _, e := range succs {
			if e.HasStep {
				steps = append(steps, e.Step)
			}
			walk(e.Node)
			if e.HasStep {
				steps = steps[:len(steps)-1]
			}
		}
	}
	for _, st := range starts {
		if len(out) >= limit {
			break
		}
		walk(st)
	}
	return out
}
