package core

import (
	"fmt"
	"maps"
	"slices"

	"pathfinder/internal/cpu"
	"pathfinder/internal/isa"
	"pathfinder/internal/pathfinder"
	"pathfinder/internal/phr"
)

// ExtendedOptions tune Extended_Read_PHR.
type ExtendedOptions struct {
	Read ReadPHROptions
	// Rounds is the number of victim runs between priming a probed entry
	// and reading its counter back (default 2). The readout requires the
	// counter to have moved by exactly the run count: an untouched entry
	// reads 4 probe mispredictions, a victim-trained one 4-Rounds, and an
	// entry that was evicted by predictor churn reads 0 — so exact-count
	// matching filters eviction false positives.
	Rounds int
	// MaxDoublets caps the recovered extension length (default 20000).
	MaxDoublets int
	// MaxUnknownRun caps consecutive unconditional taken branches bridged
	// per collision test: 4^run candidate combinations are probed (default
	// 3). Longer runs are the paper's acknowledged limitation (§5).
	MaxUnknownRun int
	// Batch is how many extension doublets are resolved against one
	// backward search before re-searching (default 64; the search suffix
	// stays sound for a full PHR window beyond the verified extension).
	Batch int
}

func (o *ExtendedOptions) defaults() {
	if o.Rounds == 0 {
		o.Rounds = 2
	}
	if o.MaxDoublets == 0 {
		o.MaxDoublets = 20000
	}
	if o.MaxUnknownRun == 0 {
		o.MaxUnknownRun = 3
	}
	if o.Batch == 0 {
		o.Batch = 64
	}
}

// counterMoved interprets a Read_PHT probe after `rounds` victim runs of a
// primed strongly-not-taken entry: the victim's single taken instance per
// run moves the counter up by one, so 4-rounds..3 probe mispredictions mean
// "real taken instance"; 4 means untouched; 0 usually means the primed
// entry was evicted and the probe read a stale longer/shorter provider.
func counterMoved(mis, rounds int) bool {
	lo := 4 - rounds
	if lo < 1 {
		lo = 1
	}
	return mis >= lo && mis <= 3
}

// ExtendedResult is the output of Extended_Read_PHR.
type ExtendedResult struct {
	// Window is the directly readable PHR (Read_PHR output).
	Window *phr.Reg
	// Ext holds the recovered older doublets: Ext[0] is history position
	// Window.Size(), Ext[1] the next older, and so on.
	Ext []phr.Doublet
	// Path is the complete recovered execution path (capture-program
	// coordinates), when the search converged.
	Path pathfinder.Path
	// CaptureProgram, Entry and Final are the program and search anchors
	// the path refers to: Entry is the 64 KiB-aligned call site reached
	// with a cleared PHR, Final the return pad after the victim call.
	CaptureProgram *isa.Program
	Entry, Final   uint64
	// Probes counts collision tests performed (victim runs ≈ Rounds per
	// recovered step).
	Probes int
}

// ExtendedReadPHR is Attack Primitive 4 (§5): it recovers control-flow
// history beyond the PHR window. After Read_PHR captures the most recent
// 194 doublets, the driver walks backward: the path search reconstructs
// taken branches from footprint algebra, and each doublet shifted out of
// the register is brute-forced over its four values by colliding an
// attacker branch (same low 16 address bits, candidate pre-branch PHR)
// with the victim's PHT entry — a matching PHR shows an elevated
// misprediction rate on the attacker branch (Figure 5).
func ExtendedReadPHR(m *cpu.Machine, v Victim, opts ExtendedOptions) (*ExtendedResult, error) {
	opts.defaults()
	capProg, err := buildCaptureProgram(m, v)
	if err != nil {
		return nil, err
	}
	window, err := ReadPHR(m, v, opts.Read)
	if err != nil {
		return nil, fmt.Errorf("core: extended read: %w", err)
	}
	cfg, err := pathfinder.Build(capProg)
	if err != nil {
		return nil, err
	}
	if err := addTransfers(cfg, capProg, v.Transfers); err != nil {
		return nil, err
	}
	res := &ExtendedResult{
		Window:         window,
		CaptureProgram: capProg,
		Entry:          capProg.MustSymbol("cap_call"),
		Final:          capProg.MustSymbol("cap_call") + 1,
	}

	var ext []phr.Doublet
	oracle := make(map[instanceKey]bool)
	for len(ext) < opts.MaxDoublets {
		j := len(ext)
		dag, err := cfg.SearchDAG(pathfinder.Spec{
			Observed:     window,
			Ext:          ext,
			Entry:        res.Entry,
			Final:        res.Final,
			MaxReversals: j + window.Size(),
		})
		if err != nil {
			return nil, fmt.Errorf("core: extended read at doublet %d: %w", j, err)
		}
		if len(dag.Terminals) > 0 {
			// Every terminal is observation-consistent and fully verified;
			// genuine 16-bit footprint collisions can still leave junctions
			// in the DAG, which the PHT oracle resolves one test each.
			var cands []pathfinder.Path
			for _, term := range dag.Terminals {
				p, probes, err := resolveDAGPath(m, v, capProg, dag, term, len(ext), opts, oracle)
				res.Probes += probes
				if err != nil {
					return nil, fmt.Errorf("core: extended read disambiguation: %w", err)
				}
				cands = append(cands, p)
			}
			chosen, probes, err := disambiguatePaths(m, v, capProg, window.Size(), cands, opts)
			res.Probes += probes
			if err != nil {
				return nil, fmt.Errorf("core: extended read terminal disambiguation: %w", err)
			}
			res.Ext = ext
			res.Path = chosen
			return res, nil
		}
		if dag.Deepest == pathfinder.NoNode {
			return nil, fmt.Errorf("core: extended read at doublet %d: no consistent history found", j)
		}
		climb, probes, err := climbSuffix(m, v, capProg, window, dag, ext, opts, oracle)
		res.Probes += probes
		if err != nil {
			return nil, fmt.Errorf("core: extended read suffix at doublet %d: %w", j, err)
		}
		suffix := climb.suffix
		// The suffix stays sound for a full window beyond the verified
		// extension, so a batch of doublets is resolved against it before
		// the next search. When the suffix runs out of conditional branches
		// the frontier junction (if any) is brute-forced jointly with the
		// unresolved unconditional tail.
		progressed := false
		for batched := 0; batched < opts.Batch && len(ext) < opts.MaxDoublets; {
			j := len(ext)
			jc := j
			for jc < len(suffix) && suffix[jc].Kind != pathfinder.EdgeCondTaken {
				jc++
			}
			if jc >= len(suffix) {
				break
			}
			learned, probes, err := resolveDoublets(m, v, capProg, window, ext, suffix, j, opts)
			res.Probes += probes
			if err != nil {
				if batched > 0 {
					// The suffix beyond the freshly verified doublets may
					// have taken a wrong turn at a junction outside the
					// trusted depth; re-search with the grown extension.
					break
				}
				return nil, fmt.Errorf("core: extended read at doublet %d: %w", j, err)
			}
			ext = append(ext, learned...)
			batched += len(learned)
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("core: extended read stalled at doublet %d: history suffix exhausted", len(ext))
		}
	}
	return nil, fmt.Errorf("core: extended read exceeded MaxDoublets=%d", opts.MaxDoublets)
}

// addTransfers registers the victim's SYSCALL/EENTER bindings with the CFG
// in label order. Ranging over the map instead would change the order of
// TransfersTo from run to run whenever two sites enter one handler, and
// with it the search's predecessor order and so the order of oracle
// probes.
func addTransfers(cfg *pathfinder.CFG, prog *isa.Program, transfers map[string]string) error {
	for _, fromLabel := range slices.Sorted(maps.Keys(transfers)) {
		entryLabel := transfers[fromLabel]
		from, ok1 := prog.SymbolAddr(fromLabel)
		entry, ok2 := prog.SymbolAddr(entryLabel)
		if !ok1 || !ok2 {
			return fmt.Errorf("core: transfer labels %q -> %q missing from program", fromLabel, entryLabel)
		}
		cfg.AddTransfer(from, entry)
	}
	return nil
}

// climbResult carries the outcome of one suffix climb.
type climbResult struct {
	suffix []pathfinder.Step
}

// arrivalPlan describes how one candidate arrival at an ambiguous node can
// be tested: the taken steps along its route back to the first conditional
// branch (the probe point), and how many of those reversals shift out
// doublets beyond the verified extension (brute-forced as combos).
type arrivalPlan struct {
	steps    []pathfinder.Step // taken steps from the node backward; last is conditional when complete
	unknowns int
	complete bool // a conditional probe point was reached
}

// buildPlan walks backward from a candidate arrival through unique alive
// predecessors until it finds a conditional-taken step to probe.
func buildPlan(dag *pathfinder.DAG, e pathfinder.Edge, n pathfinder.NodeID, extLen, maxUnknown int) arrivalPlan {
	var plan arrivalPlan
	depth := dag.R(n)
	cur := e
	for hops := 0; hops < 4096; hops++ {
		if cur.HasStep && cur.Step.Taken {
			if depth >= extLen {
				plan.unknowns++
			}
			plan.steps = append(plan.steps, cur.Step)
			depth++
			if plan.unknowns > maxUnknown+1 {
				return plan // too deep to brute force
			}
			if cur.Step.Conditional {
				plan.complete = true
				return plan
			}
		}
		alive := alivePreds(dag, cur.Node)
		if len(alive) != 1 {
			return plan // nested ambiguity: cannot extend this probe plan
		}
		cur = alive[0]
	}
	return plan
}

// testPlan probes a complete arrival plan: the probe register is rebuilt
// from the observed window through the climbed suffix and the plan's route,
// brute-forcing every shifted-out doublet beyond the verified extension
// (both the suffix tail past the frontier and the plan's own reversals).
// Each candidate register's entry at the conditional probe point is primed
// to strong not-taken, the victim runs, and the counter is read back. It
// reports whether any combination corresponds to a real taken instance.
func testPlan(m *cpu.Machine, v Victim, capProg *isa.Program, window *phr.Reg, suffix []pathfinder.Step, plan arrivalPlan, ext []phr.Doublet, opts ExtendedOptions, cache map[instanceKey]bool) (bool, int, error) {
	all := append(append([]pathfinder.Step(nil), suffix...), plan.steps...)
	unknowns := 0
	for d := range all {
		if d >= len(ext) {
			unknowns++
		}
	}
	nCombos := 1 << (2 * unknowns)
	regs := make([]*phr.Reg, 0, nCombos)
	for combo := 0; combo < nCombos; combo++ {
		reg := window.Clone()
		uk := 0
		for d, st := range all {
			var top phr.Doublet
			if d < len(ext) {
				top = ext[d]
			} else {
				top = phr.Doublet(combo>>(2*uk)) & 3
				uk++
			}
			reg.ReverseUpdate(phr.Footprint(st.Addr, st.Target), top)
		}
		regs = append(regs, reg)
	}
	pc := all[len(all)-1].Addr
	probes := 0
	if nCombos == 1 {
		if taken, ok := cache[instanceKey{pc: pc, reg: regs[0].Words()}]; ok {
			return taken, 0, nil
		}
	}
	if v.Setup != nil {
		v.Setup(m)
	}
	for _, reg := range regs {
		if err := WritePHT(m, pc, reg, false); err != nil {
			return false, probes, err
		}
		probes++
	}
	for round := 0; round < opts.Rounds; round++ {
		if err := m.Run(capProg, "cap_main"); err != nil {
			return false, probes, err
		}
	}
	any := false
	for _, reg := range regs {
		mis, err := ReadPHT(m, pc, reg, 4)
		probes++
		if err != nil {
			return false, probes, err
		}
		taken := counterMoved(mis, opts.Rounds)
		cache[instanceKey{pc: pc, reg: reg.Words()}] = taken
		if taken {
			any = true
		}
	}
	return any, probes, nil
}

// climbSuffix reconstructs the taken-branch suffix (most recent first) by
// walking the search DAG backward in time from the final state. Ambiguous
// arrivals are resolved by probing each candidate route's nearest
// conditional-taken instance through the PHT oracle (Figure 5 + §4.4); a
// route whose instance is real belongs to the true history. The climb
// stops at ambiguities it cannot test — nodes beyond the verified
// extension's reach — returning the sound prefix, which the driver extends
// before the next climb.
func climbSuffix(m *cpu.Machine, v Victim, capProg *isa.Program, window *phr.Reg, dag *pathfinder.DAG, ext []phr.Doublet, opts ExtendedOptions, cache map[instanceKey]bool) (climbResult, int, error) {
	var res climbResult
	probes := 0
	n := dag.Root
	for {
		alive := alivePreds(dag, n)
		if len(alive) == 0 {
			return res, probes, nil
		}
		chosen := alive[0]
		if len(alive) > 1 {
			tailUnknowns := 0
			if r := dag.R(n); r > len(ext) {
				tailUnknowns = r - len(ext)
			}
			var winners, defaults []pathfinder.Edge
			overBudget := false
			for _, e := range alive {
				plan := buildPlan(dag, e, n, len(ext), opts.MaxUnknownRun)
				if !plan.complete {
					defaults = append(defaults, e)
					continue
				}
				if tailUnknowns+plan.unknowns > opts.MaxUnknownRun+1 {
					overBudget = true
					break
				}
				hit, p, err := testPlan(m, v, capProg, window, res.suffix, plan, ext, opts, cache)
				probes += p
				if err != nil {
					return res, probes, err
				}
				if hit {
					winners = append(winners, e)
				}
			}
			if overBudget {
				// Too many unverified doublets to brute force here: return
				// the sound prefix; the driver verifies more of the
				// extension and re-climbs.
				return res, probes, nil
			}
			switch {
			case len(winners) == 1:
				chosen = winners[0]
			case len(winners) > 1:
				// A PHT hash collision can make a wrong route test positive
				// alongside the true one; verify each winner's deeper chain.
				var survivors []pathfinder.Edge
				for _, e := range winners {
					ok, p, err := chainVerify(m, v, capProg, dag, e.Node, len(ext), opts, cache)
					probes += p
					if err != nil {
						return res, probes, err
					}
					if ok {
						survivors = append(survivors, e)
					}
				}
				if len(survivors) != 1 {
					return res, probes, fmt.Errorf("ambiguous arrivals at %#x: %d routes verify (invariant control flow beyond the PHR window?)", dag.Addr(n), len(survivors))
				}
				chosen = survivors[0]
			case len(defaults) == 1:
				chosen = defaults[0]
			default:
				return res, probes, fmt.Errorf("no arrival route at %#x tests positive (%d untestable)", dag.Addr(n), len(defaults))
			}
		}
		if chosen.HasStep && chosen.Step.Taken {
			res.suffix = append(res.suffix, chosen.Step)
		}
		n = chosen.Node
	}
}

// alivePreds returns the edges from n back to its alive predecessors, in
// DAG order.
func alivePreds(dag *pathfinder.DAG, n pathfinder.NodeID) []pathfinder.Edge {
	var alive []pathfinder.Edge
	for _, e := range dag.Preds(n) {
		if dag.Alive(e.Node) {
			alive = append(alive, e)
		}
	}
	return alive
}

// chainVerify walks backward from a node through unique alive arrivals and
// oracle-tests up to three conditional-taken instances along the way; a
// hypothesis reached through a hash-collision false positive has junk
// registers upstream and fails quickly.
func chainVerify(m *cpu.Machine, v Victim, capProg *isa.Program, dag *pathfinder.DAG, n pathfinder.NodeID, trustDepth int, opts ExtendedOptions, cache map[instanceKey]bool) (bool, int, error) {
	probes := 0
	tested := 0
	for tested < 3 {
		alive := alivePreds(dag, n)
		if len(alive) != 1 {
			return true, probes, nil // ambiguity or end: stop verifying here
		}
		e := alive[0]
		if e.HasStep && e.Step.Taken && e.Step.Conditional {
			if dag.R(e.Node) > trustDepth {
				return true, probes, nil
			}
			taken, p, err := oracleTaken(m, v, capProg, e.Step.Addr, dag.Reg(e.Node), opts, cache)
			probes += p
			if err != nil {
				return false, probes, err
			}
			if !taken {
				return false, probes, nil
			}
			tested++
		}
		n = e.Node
	}
	return true, probes, nil
}

// oracleTaken asks the PHT whether the victim's conditional branch at pc
// executes taken with path history reg: prime the entry to strong
// not-taken, run the victim, read the counter back (§4.4 / Figure 5).
func oracleTaken(m *cpu.Machine, v Victim, capProg *isa.Program, pc uint64, reg *phr.Reg, opts ExtendedOptions, cache map[instanceKey]bool) (bool, int, error) {
	key := instanceKey{pc: pc, reg: reg.Words()}
	if taken, ok := cache[key]; ok {
		return taken, 0, nil
	}
	if err := WritePHT(m, pc, reg, false); err != nil {
		return false, 0, err
	}
	if v.Setup != nil {
		v.Setup(m)
	}
	for r := 0; r < opts.Rounds; r++ {
		if err := m.Run(capProg, "cap_main"); err != nil {
			return false, 0, err
		}
	}
	mis, err := ReadPHT(m, pc, reg, 4)
	if err != nil {
		return false, 1, err
	}
	taken := counterMoved(mis, opts.Rounds)
	cache[key] = taken
	return taken, 1, nil
}

// resolveDAGPath walks forward from a search-DAG node to the final state,
// resolving each ambiguous junction (a conditional branch whose taken and
// not-taken continuations are both observation-consistent) with one oracle
// query. On a complete path every node register is fully verified and the
// oracle is always meaningful; on a truncated suffix only junctions within
// trustDepth reversals of the final state have fully known registers —
// deeper ones are taken arbitrarily and re-derived after the extension
// grows.
func resolveDAGPath(m *cpu.Machine, v Victim, capProg *isa.Program, dag *pathfinder.DAG, start pathfinder.NodeID, trustDepth int, opts ExtendedOptions, cache map[instanceKey]bool) (pathfinder.Path, int, error) {
	var steps []pathfinder.Step
	probes := 0
	complete := dag.Complete(start)
	n := start
	for succs := dag.Succs(n); len(succs) > 0; succs = dag.Succs(n) {
		e := succs[0]
		if len(succs) > 1 && (complete || dag.R(n) <= trustDepth) {
			taken, p, err := oracleTaken(m, v, capProg, dag.Addr(n), dag.Reg(n), opts, cache)
			probes += p
			if err != nil {
				return pathfinder.Path{}, probes, err
			}
			found := false
			for _, cand := range succs {
				if cand.HasStep && cand.Step.Conditional && cand.Step.Taken == taken {
					e, found = cand, true
					break
				}
			}
			if !found {
				return pathfinder.Path{}, probes, fmt.Errorf("unresolvable junction at %#x (oracle says taken=%v)", dag.Addr(n), taken)
			}
		}
		if e.HasStep {
			steps = append(steps, e.Step)
		}
		n = e.Node
	}
	return pathfinder.Path{Steps: steps, Complete: complete}, probes, nil
}

// instanceKey identifies one dynamic execution instance of a conditional
// branch: its address plus the exact path history its prediction used.
type instanceKey struct {
	pc  uint64
	reg [7]uint64
}

// takenInstances forward-replays a complete path from the cleared entry
// state and collects the (pc, pre-branch PHR) of every conditional branch
// instance it claims TAKEN.
func takenInstances(p pathfinder.Path, size int) (map[instanceKey]*phr.Reg, []instanceKey) {
	reg := phr.New(size)
	set := make(map[instanceKey]*phr.Reg)
	var order []instanceKey
	for _, s := range p.Steps {
		if s.Conditional && s.Taken {
			k := instanceKey{pc: s.Addr, reg: reg.Words()}
			if _, dup := set[k]; !dup {
				set[k] = reg.Clone()
				order = append(order, k)
			}
		}
		if s.Taken {
			reg.UpdateBranch(s.Addr, s.Target)
		}
	}
	return set, order
}

// disambiguatePaths reduces multiple observation-consistent complete paths
// to one by querying the PHT oracle: for an instance claimed taken by some
// paths and not by others, prime its entry to strong not-taken, run the
// victim, and read the counter back — it moves iff the branch really
// executed taken with that history (§4.4 applied as in Figure 5).
func disambiguatePaths(m *cpu.Machine, v Victim, capProg *isa.Program, size int, cands []pathfinder.Path, opts ExtendedOptions) (pathfinder.Path, int, error) {
	probes := 0
	if len(cands) == 1 {
		return cands[0], 0, nil
	}
	type pathInfo struct {
		path  pathfinder.Path
		set   map[instanceKey]*phr.Reg
		order []instanceKey
	}
	infos := make([]pathInfo, len(cands))
	for i, p := range cands {
		set, order := takenInstances(p, size)
		infos[i] = pathInfo{path: p, set: set, order: order}
	}
	if v.Setup != nil {
		v.Setup(m)
	}
	for round := 0; round < 16 && len(infos) > 1; round++ {
		// Find an instance on which the candidates disagree.
		var key instanceKey
		var reg *phr.Reg
		found := false
		for _, inf := range infos {
			for _, k := range inf.order {
				claimed := 0
				for _, other := range infos {
					if _, ok := other.set[k]; ok {
						claimed++
					}
				}
				if claimed < len(infos) {
					key, reg, found = k, inf.set[k], true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			// Identical taken-instance sets: the remaining paths are
			// observationally indistinguishable; return the first.
			return infos[0].path, probes, nil
		}
		if err := WritePHT(m, key.pc, reg, false); err != nil {
			return pathfinder.Path{}, probes, err
		}
		for r := 0; r < opts.Rounds; r++ {
			if err := m.Run(capProg, "cap_main"); err != nil {
				return pathfinder.Path{}, probes, err
			}
		}
		mis, err := ReadPHT(m, key.pc, reg, 4)
		probes++
		if err != nil {
			return pathfinder.Path{}, probes, err
		}
		reallyTaken := counterMoved(mis, opts.Rounds)
		var keep []pathInfo
		for _, inf := range infos {
			if _, claims := inf.set[key]; claims == reallyTaken {
				keep = append(keep, inf)
			}
		}
		if len(keep) == 0 {
			return pathfinder.Path{}, probes, fmt.Errorf("oracle eliminated every candidate path at %#x", key.pc)
		}
		infos = keep
	}
	return infos[0].path, probes, nil
}

// extCandidate is one hypothesis for the doublet values ext[j..j+len-1].
type extCandidate struct {
	doublets []phr.Doublet
	reg      *phr.Reg // pre-branch PHR at the probe depth under this hypothesis
}

// resolveDoublets recovers one or more extension doublets starting at index
// j with a prime+test+probe sequence (Figure 5 composed with the Read_PHT
// discipline of §4.4): every candidate pre-branch PHR at the probe branch
// is primed to a strongly-not-taken PHT entry (Write_PHT), the victim runs
// a few times — only a candidate matching a real execution instance has its
// entry trained taken — and a Read_PHT probe of each entry reveals which
// counters moved.
//
// A surviving false candidate (a PHT index/tag hash collision with another
// victim instance) is eliminated by re-testing the survivors at the next
// conditional branch deeper in history, where an independent hash would
// have to collide again. Persistent ties indicate control flow that is
// genuinely invariant beyond the PHR window — the paper's §6 limitation —
// and are reported as errors.
func resolveDoublets(m *cpu.Machine, v Victim, capProg *isa.Program, window *phr.Reg, ext []phr.Doublet, suffix []pathfinder.Step, j int, opts ExtendedOptions) ([]phr.Doublet, int, error) {
	// Register state after reversing steps 0..j-1 with known refills.
	base := window.Clone()
	for i := 0; i < j; i++ {
		base.ReverseUpdate(phr.Footprint(suffix[i].Addr, suffix[i].Target), ext[i])
	}
	if v.Setup != nil {
		v.Setup(m)
	}

	cands := []extCandidate{{doublets: nil, reg: base}}
	depth := j // next reversal to apply
	probes := 0
	for level := 0; level < 3; level++ {
		// Extend every candidate to the next conditional branch.
		jc := depth
		for jc < len(suffix) && suffix[jc].Kind != pathfinder.EdgeCondTaken {
			jc++
		}
		if jc >= len(suffix) {
			return nil, probes, fmt.Errorf("no conditional branch left to probe")
		}
		if jc-depth >= opts.MaxUnknownRun+1 {
			return nil, probes, fmt.Errorf("%d consecutive unconditional taken branches exceed the testable limit (§5)", jc-depth)
		}
		extra := jc - depth + 1
		var next []extCandidate
		for _, c := range cands {
			for combo := 0; combo < 1<<(2*extra); combo++ {
				reg := c.reg.Clone()
				ds := append(append([]phr.Doublet(nil), c.doublets...), make([]phr.Doublet, extra)...)
				for i := depth; i <= jc; i++ {
					top := phr.Doublet(combo>>(2*(i-depth))) & 3
					ds[i-j] = top
					reg.ReverseUpdate(phr.Footprint(suffix[i].Addr, suffix[i].Target), top)
				}
				next = append(next, extCandidate{doublets: ds, reg: reg})
			}
		}
		cands = next
		depth = jc + 1
		pc := suffix[jc].Addr

		var survivors []extCandidate
		for attempt := 0; attempt < 3; attempt++ {
			survivors = survivors[:0]
			// Prime every candidate entry to strong not-taken.
			for i := range cands {
				if err := WritePHT(m, pc, cands[i].reg, false); err != nil {
					return nil, probes, err
				}
				probes++
			}
			// Test: victim runs train only entries matching real instances.
			for round := 0; round < opts.Rounds; round++ {
				if err := m.Run(capProg, "cap_main"); err != nil {
					return nil, probes, err
				}
			}
			// Probe the counters back and keep the candidates that moved.
			for i := range cands {
				n, err := ReadPHT(m, pc, cands[i].reg, 4)
				probes++
				if err != nil {
					return nil, probes, err
				}
				if counterMoved(n, opts.Rounds) {
					survivors = append(survivors, cands[i])
				}
			}
			if len(survivors) > 0 {
				break
			}
			// No counter moved: the primed entries were likely evicted by
			// predictor churn during the victim runs; re-prime and retry.
		}
		switch len(survivors) {
		case 0:
			return nil, probes, fmt.Errorf("collision signal lost at %#x: no candidate counter moved", pc)
		case 1:
			return survivors[0].doublets, probes, nil
		}
		// Multiple survivors: a hash collision or genuinely invariant
		// control flow; deepen the test with the survivors only.
		cands = survivors
	}
	return nil, probes, fmt.Errorf("ambiguous collision: %d candidates survive deepening (invariant control flow beyond the PHR window?)", len(cands))
}
