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

// A stored register differs from the search's history only in its low
// deltaDoublets doublets. The search starts from the observed window and
// each reversal XORs a footprint into doublets 0 to FootprintDoublets-1,
// shifts the register right by one doublet and refills the top from the
// history beyond the window. So if the register after r reversals is the
// history shifted by r, XOR a delta D below doublet deltaDoublets, the
// register after the next reversal, with footprint f, is the history
// shifted by r+1, XOR (D ^ f) >> 1 doublet: again a delta below doublet
// deltaDoublets. The root's delta is 0.
const (
	deltaDoublets = phr.FootprintDoublets - 1
	deltaBits     = 2 * deltaDoublets
	// depthBits is the width of the reversal count in a state's key.
	depthBits = 32 - deltaBits
)

// node is one deduplicated backward-search state: the working register
// after r reversals, positioned at instruction idx. States reached along
// different histories merge here, turning the search tree into a DAG and
// keeping systematically ambiguous programs (repeated blocks, colliding
// footprints) tractable. The register is hist[r:] (see searcher.hist) XOR
// delta in its low deltaDoublets doublets. A node holds no pointer, so the
// garbage collector never scans a search's arena.
type node struct {
	idx       int32  // instruction index
	r         int32  // reversals between here and the final state
	delta     uint16 // register doublets 0 to deltaDoublets-1 XOR hist[r:]
	complete  bool
	alive     bool
	truncated bool
}

// regDoublet returns doublet p of the register after r reversals with the
// given delta: hist[p+r], or 0 past the end of hist (the unknown refill),
// XOR the delta below doublet deltaDoublets.
func regDoublet(hist []phr.Doublet, p, r int, delta uint16) phr.Doublet {
	var d phr.Doublet
	if p+r < len(hist) {
		d = hist[p+r]
	}
	if p < deltaDoublets {
		d ^= phr.Doublet(delta>>(2*p)) & 3
	}
	return d
}

// keyOf packs a state into the key the search indexes it by. The top bit
// is set so that no key is 0, which the table keeps for empty slots.
func keyOf(idx, r int32, delta uint16) uint64 {
	return 1<<63 | uint64(idx)<<32 | uint64(r)<<deltaBits | uint64(delta)
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
	size  int           // register size in doublets
	hist  []phr.Doublet // the search's history, for Reg
	nodes []node
	// Edges in compressed sparse row form: the predecessors of node n are
	// preds[predOff[n]:predOff[n+1]], its successors succs[succOff[n]:
	// succOff[n+1]], each list in the order the search linked its edges.
	// An edge's step is derived from its two ends (step) when asked for.
	predOff, succOff []int32
	preds, succs     []NodeID
}

// Preds lists the edges back in time from state n: every
// observation-consistent way n could have been reached. The slice is
// fresh on every call.
func (d *DAG) Preds(n NodeID) []Edge {
	from := d.preds[d.predOff[n]:d.predOff[n+1]]
	es := make([]Edge, len(from))
	for i, f := range from {
		step, hasStep := d.step(f, n)
		es[i] = Edge{Node: f, Step: step, HasStep: hasStep}
	}
	return es
}

// Succs lists the edges forward in time from state n toward the final
// state. A state has several only where control could have gone several
// ways: a conditional branch's taken and not-taken continuations, or the
// targets of a return or an indirect jump. The slice is fresh on every
// call.
func (d *DAG) Succs(n NodeID) []Edge {
	to := d.succs[d.succOff[n]:d.succOff[n+1]]
	es := make([]Edge, len(to))
	for i, t := range to {
		step, hasStep := d.step(n, t)
		es[i] = Edge{Node: t, Step: step, HasStep: hasStep}
	}
	return es
}

// Addr returns the instruction address of state n.
func (d *DAG) Addr(n NodeID) uint64 { return d.prog.Instrs[d.nodes[n].idx].Addr }

// R returns the number of taken-branch reversals between state n and the
// final state.
func (d *DAG) R(n NodeID) int { return int(d.nodes[n].r) }

// Reg returns a fresh copy of the PHR value at state n.
func (d *DAG) Reg(n NodeID) *phr.Reg {
	nd := d.nodes[n]
	ds := make([]phr.Doublet, d.size)
	for p := range ds {
		ds[p] = regDoublet(d.hist, p, int(nd.r), nd.delta)
	}
	reg := phr.New(d.size)
	reg.SetDoublets(ds)
	return reg
}

// Complete reports whether n is an entry state with a verified zero start.
func (d *DAG) Complete(n NodeID) bool { return d.nodes[n].complete }

// Alive reports whether the backward walk from n can still reach a
// truncation point or a verified entry; dead states are search hypotheses
// that ran out of consistent predecessors.
func (d *DAG) Alive(n NodeID) bool { return d.nodes[n].alive }

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
}

// arrival is one way into an instruction that the search follows
// backward: a taken branch with footprint fp from instruction from, or a
// SYSCALL/EENTER transfer from it when taken is false.
type arrival struct {
	from  int32
	fp    uint16
	taken bool
}

type searcher struct {
	c    *CFG
	spec Spec
	// hist is the window's doublets followed by Ext: the register after r
	// reversals is hist[r:], 0 past its end, XOR a state's delta.
	hist   []phr.Doublet
	entry  int32  // instruction index of spec.Entry, or -1
	walked []bool // per instruction: walkedInstrs
	// The arrivals into instruction i are arrivals[arrivalOff[i]:
	// arrivalOff[i+1]], in the order the search links them.
	arrivalOff []int32
	arrivals   []arrival
	nodes      []node
	index      table
	links      []link
	// queue[qi] is the item being expanded and queue[qi+1:] the items
	// waiting, in FIFO order. The consumed items before qi are dropped once
	// there are at least 64 of them and they make up half the queue.
	queue  []item
	qi     int
	states int // stored plus walked states: what MaxNodes caps

	terminals []NodeID // complete entry states
	deepest   NodeID   // truncated state with the most reversals
}

// indexSlots is the size of a search's index when it starts. Tests lower
// it (export_test.go) so that searches of a few states rehash their index.
var indexSlots = 1 << 8

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
	size := spec.Observed.Size()
	if size+len(spec.Ext) >= 1<<depthBits {
		return nil, fmt.Errorf("pathfinder: %d history doublets, more than the search's %d", size+len(spec.Ext), 1<<depthBits-1)
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
		hist:    spec.Observed.AppendDoublets(make([]phr.Doublet, 0, size+len(spec.Ext))),
		entry:   -1,
		index:   newTable(indexSlots),
		deepest: NoNode,
	}
	for _, d := range spec.Ext {
		s.hist = append(s.hist, d&3)
	}
	if entry, ok := c.Prog.IndexOf(spec.Entry); ok {
		s.entry = int32(entry)
	}
	s.walked = c.walkedInstrs(s.entry, final)
	var err error
	if s.arrivalOff, s.arrivals, err = c.arrivalLists(); err != nil {
		return nil, err
	}
	root, _ := s.add(int32(final), 0, 0)
	s.queue = append(s.queue, item{node: root, idx: -1})
	for ; s.qi < len(s.queue); s.qi++ {
		if s.states > spec.MaxNodes {
			return nil, fmt.Errorf("pathfinder: search exceeded %d states", spec.MaxNodes)
		}
		if s.qi >= 64 && 2*s.qi >= len(s.queue) {
			s.queue = s.queue[:copy(s.queue, s.queue[s.qi:])]
			s.qi = 0
		}
		s.expand(s.queue[s.qi])
	}
	// Neither is read again: let the collector have them while freeze
	// builds the edge lists.
	s.queue, s.index = nil, table{}
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

// takenKind is the kind of every taken edge out of an instruction with
// operation op.
func takenKind(op isa.Op) EdgeKind {
	switch op {
	case isa.BR:
		return EdgeCondTaken
	case isa.CALL:
		return EdgeCall
	case isa.RET:
		return EdgeReturn
	}
	return EdgeJump
}

// arrivalLists lays out, per instruction, the arrivals the search follows
// backward into it: its taken edges in catalog order, then its transfers,
// each only when it leaves from an instruction. freeze derives an edge's
// step from the instruction it leaves, so arrivalLists fails on a taken
// edge whose kind is not takenKind of that instruction, or a transfer
// leaving a conditional branch, which would read as its fallthrough.
func (c *CFG) arrivalLists() ([]int32, []arrival, error) {
	p := c.Prog
	off := make([]int32, len(p.Instrs)+1)
	var arr []arrival
	for i := range p.Instrs {
		to := p.Instrs[i].Addr
		for _, e := range c.edgesTo[to] {
			from, ok := p.IndexOf(e.From)
			if !ok {
				continue
			}
			if k := takenKind(p.Instrs[from].Op); k != e.Kind {
				return nil, nil, fmt.Errorf("pathfinder: %v edge %#x->%#x leaves a %v branch", e.Kind, e.From, to, k)
			}
			arr = append(arr, arrival{from: int32(from), fp: e.Footprint, taken: true})
		}
		for _, addr := range c.transfersTo[to] {
			from, ok := p.IndexOf(addr)
			if !ok {
				continue
			}
			if p.Instrs[from].Op == isa.BR {
				return nil, nil, fmt.Errorf("pathfinder: transfer %#x->%#x leaves a conditional branch", addr, to)
			}
			arr = append(arr, arrival{from: int32(from)})
		}
		off[i+1] = int32(len(arr))
	}
	return off, arr, nil
}

// zeroKnown reports whether the register after r reversals with the given
// delta is consistent with the cleared-PHR start. Position p of the
// register is trustworthy unless it was refilled by a reversal whose
// shifted-out doublet is genuinely unknown: refill r' lands at position
// size-r+r', is oracle-verified for r' < len(Ext), and is *provably zero
// under this path hypothesis* once its history position exceeds the last
// branch's footprint reach (positions >= FootprintDoublets). Only the
// window [size-r+len(Ext), FootprintDoublets) is unverifiable; Extended
// Read PHR keeps that window empty before accepting a path.
func (s *searcher) zeroKnown(r int, delta uint16) bool {
	n := s.spec.Observed.Size()
	lo := len(s.hist) - r // first untrusted refill position
	for p := 0; p < n; p++ {
		if p >= lo && p < phr.FootprintDoublets {
			continue // genuinely unknown refill; not checkable
		}
		if regDoublet(s.hist, p, r, delta) != 0 {
			return false
		}
	}
	return true
}

// add stores the state (idx, r, delta) unless it is stored already, and
// returns its id and whether it is new.
func (s *searcher) add(idx, r int32, delta uint16) (NodeID, bool) {
	key := keyOf(idx, r, delta)
	id, slot := s.index.find(key)
	if id != NoNode {
		return id, false
	}
	id = NodeID(len(s.nodes))
	s.nodes = push(s.nodes, node{idx: idx, r: r, delta: delta})
	if s.index.put(slot, key, id) {
		s.index.rehash(s.floor())
	}
	s.states++
	return id, true
}

// floor returns the least depth the search can still look a state up at:
// the least depth of the item being expanded and the items waiting, or 0
// before the first expansion. Expanding a state at depth r looks up states
// at depths r and r+1 only, and every item queued later is at least as deep
// as the item whose expansion queued it, so the index can drop every state
// below the floor.
func (s *searcher) floor() int32 {
	if s.qi >= len(s.queue) {
		return 0
	}
	f := s.nodes[s.queue[s.qi].node].r
	for _, it := range s.queue[s.qi+1:] {
		f = min(f, s.nodes[it.node].r)
	}
	return f
}

// link records that the predecessor state (idx, r, delta) leads to the
// stored state to, creating and enqueueing the predecessor when first
// seen. A predecessor at a walked instruction is only queued, as a walk
// item for to: it gets no state, index entry or edge.
func (s *searcher) link(to NodeID, idx, r int32, delta uint16) {
	if s.walked[idx] {
		s.states++
		s.queue = push(s.queue, item{node: to, idx: idx})
		return
	}
	from, fresh := s.add(idx, r, delta)
	if fresh {
		if idx == s.entry {
			// A path is complete only when every refill it used was
			// verified: refills beyond Ext are sound only where the history
			// position provably precedes the first taken branch (cleared
			// PHR), bounding the reversal count.
			verifiable := int(r) <= len(s.hist)-phr.FootprintDoublets
			if verifiable && s.zeroKnown(int(r), delta) {
				s.nodes[from].complete = true
				s.terminals = append(s.terminals, from)
			}
		}
		if !s.nodes[from].complete {
			s.queue = push(s.queue, item{node: from, idx: -1})
		}
	}
	s.links = push(s.links, link{from: from, to: to})
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
		if int(n.r) >= len(s.hist) || (s.spec.MaxReversals > 0 && int(n.r) >= s.spec.MaxReversals) {
			// History exhausted or lookahead bound: candidate truncation point.
			s.nodes[it.node].truncated = true
			if s.deepest == NoNode || n.r > s.nodes[s.deepest].r {
				s.deepest = it.node
			}
			return
		}
		// Arrival by a taken branch, pruned on the register's lowest
		// doublet as the paper describes, or by a SYSCALL/EENTER transfer
		// (not PHR-visible).
		low := uint16(s.hist[n.r]) ^ n.delta
		for _, a := range s.arrivals[s.arrivalOff[idx]:s.arrivalOff[idx+1]] {
			switch {
			case !a.taken:
				s.link(it.node, a.from, n.r, n.delta)
			case (a.fp^low)&3 == 0:
				s.link(it.node, a.from, n.r+1, (n.delta^a.fp)>>2)
			}
		}
	}

	// Arrival by falling through from the previous instruction.
	if idx > 0 {
		switch s.c.Prog.Instrs[idx-1].Op {
		case isa.JMP, isa.CALL, isa.RET, isa.JR, isa.HALT, isa.SYSCALL, isa.EENTER:
			// cannot fall through
		default:
			s.link(it.node, idx-1, n.r, n.delta)
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
		hist:      s.hist,
		nodes:     s.nodes,
		predOff:   make([]int32, n+1),
		succOff:   make([]int32, n+1),
		preds:     make([]NodeID, len(s.links)),
		succs:     make([]NodeID, len(s.links)),
	}
	// Sum the list lengths up to each node's end, then fill every list
	// backward from its end, walking the links backward: each offset comes
	// to rest at its list's start, and each list keeps link order.
	for _, l := range s.links {
		d.predOff[l.to]++
		d.succOff[l.from]++
	}
	for i := 1; i <= n; i++ {
		d.predOff[i] += d.predOff[i-1]
		d.succOff[i] += d.succOff[i-1]
	}
	for _, l := range slices.Backward(s.links) {
		d.predOff[l.to]--
		d.preds[d.predOff[l.to]] = l.from
		d.succOff[l.from]--
		d.succs[d.succOff[l.from]] = l.to
	}
	d.markAlive()
	return d
}

// step derives the branch event of the edge from the earlier state from to
// the later state to, reading the instruction the edge leaves. An edge one
// reversal deeper is the taken branch from that instruction to the later
// state's; a same-depth edge out of a conditional branch is its not-taken
// fallthrough; any other same-depth edge is a plain fallthrough or a
// transfer, with no step.
func (d *DAG) step(from, to NodeID) (Step, bool) {
	f, t := d.nodes[from], d.nodes[to]
	in := &d.prog.Instrs[f.idx]
	if f.r > t.r {
		kind := takenKind(in.Op)
		return Step{
			Addr: in.Addr, Target: d.prog.Instrs[t.idx].Addr, Taken: true,
			Conditional: kind == EdgeCondTaken, Kind: kind,
		}, true
	}
	if in.Op == isa.BR {
		return Step{Addr: in.Addr, Conditional: true}, true
	}
	return Step{}, false
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
		for _, to := range d.succs[d.succOff[n]:d.succOff[n+1]] {
			if !d.nodes[to].alive {
				d.nodes[to].alive = true
				stack = append(stack, to)
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
		succs := d.succs[d.succOff[n]:d.succOff[n+1]]
		if len(succs) == 0 {
			cp := make([]Step, len(steps))
			copy(cp, steps)
			out = append(out, Path{Steps: cp, Complete: complete})
			return
		}
		for _, to := range succs {
			step, hasStep := d.step(n, to)
			if hasStep {
				steps = append(steps, step)
			}
			walk(to)
			if hasStep {
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
