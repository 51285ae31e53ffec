package core

import (
	"fmt"

	"pathfinder/internal/cpu"
	"pathfinder/internal/isa"
	"pathfinder/internal/phr"
)

// Registers reserved by attack harness programs. Victim code is free to use
// any register: the harness re-initialises its own state around each call.
const (
	rIter    = isa.Reg(20) // loop counter
	rIters   = isa.Reg(21) // loop bound
	rCoin    = isa.Reg(22) // random train bit
	rOne     = isa.Reg(23) // constant 1
	rOutcome = isa.Reg(24) // scheduled branch outcome
	rTable   = isa.Reg(25) // outcome table base
)

// WritePHR is Attack Primitive "Write_PHR": it sets the hart's PHR to the
// given value by running a generated chain of 194 (PHR-size) taken jumps.
func WritePHR(m *cpu.Machine, target *phr.Reg) error {
	if target.Size() != m.Arch().PHRSize {
		return fmt.Errorf("core: target size %d != PHR size %d", target.Size(), m.Arch().PHRSize)
	}
	a := isa.NewAssembler()
	a.Org(AttackerBase)
	a.Label("main")
	EmitWritePHR(a, "wr", target, "done")
	a.Align(slotAlign, WriteContOffset(target))
	a.Label("done")
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		return err
	}
	return m.Run(p, "main")
}

// ShiftPHR runs the Shift_PHR[n] macro on the machine.
func ShiftPHR(m *cpu.Machine, n int) error {
	if n <= 0 {
		return nil
	}
	a := isa.NewAssembler()
	a.Org(AttackerBase)
	a.Label("main")
	EmitShiftPHR(a, "sh", n, "done")
	a.Align(slotAlign, 0)
	a.Label("done")
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		return err
	}
	return m.Run(p, "main")
}

// ClearPHR runs the Clear_PHR macro (Shift_PHR[PHR size]).
func ClearPHR(m *cpu.Machine) error { return ShiftPHR(m, m.Arch().PHRSize) }

// CaptureVictimPHR returns the ground-truth PHR value a Read_PHR attack
// recovers: the PHR after Clear_PHR; call victim; return. It uses the same
// code layout as the attack programs (victim at VictimBase, 64 KiB-aligned
// call site), so footprints match exactly. This is a test oracle, not an
// attacker capability.
func CaptureVictimPHR(m *cpu.Machine, v Victim) (*phr.Reg, error) {
	p, err := buildCaptureProgram(m, v)
	if err != nil {
		return nil, err
	}
	if v.Setup != nil {
		v.Setup(m)
	}
	if err := m.Run(p, "cap_main"); err != nil {
		return nil, err
	}
	return m.Hart(0).PHR.Clone(), nil
}

func buildCaptureProgram(m *cpu.Machine, v Victim) (*isa.Program, error) {
	a := isa.NewAssembler()
	v.emitInto(a)
	a.Label("cap_main")
	EmitClearPHR(a, "cap_clr", m.Arch().PHRSize, "cap_call")
	a.Align(slotAlign, 0)
	a.Label("cap_call")
	a.Call(v.Entry)
	a.Halt()
	return a.Assemble()
}

// ReadPHROptions tune the Read_PHR primitive.
type ReadPHROptions struct {
	// Iters is the train/test loop length per candidate value (default 48).
	Iters int
	// MaxDoublets limits how many doublets are recovered (default: all).
	MaxDoublets int
	// Threshold is the test-branch misprediction rate above which a
	// candidate is declared the true doublet (default 0.25).
	Threshold float64
}

func (o *ReadPHROptions) defaults() {
	if o.Iters == 0 {
		o.Iters = 48
	}
	if o.Threshold == 0 {
		o.Threshold = 0.25
	}
}

// ReadPHR is Attack Primitive 1, "Read_PHR": it recovers the PHR value left
// by a victim call, one doublet at a time, by correlating a random train
// branch with a test branch (§4.2, Figure 4). For each doublet it rebuilds
// the two-path gadget: the taken path clears the PHR, calls the victim and
// shifts the doublet under test to the top; the not-taken path writes a
// candidate X (with the already-recovered doublets below it). When the two
// paths produce the same PHR the predictor cannot separate them and the
// test branch mispredicts ~50% of the time; otherwise ~0%.
//
// The recovered value is the PHR *as produced by the capture sequence*
// (clear; call victim; return): it includes the call and return footprints,
// which Pathfinder accounts for when mapping it back to control flow.
func ReadPHR(m *cpu.Machine, v Victim, opts ReadPHROptions) (*phr.Reg, error) {
	opts.defaults()
	n := m.Arch().PHRSize
	limit := n
	if opts.MaxDoublets > 0 && opts.MaxDoublets < n {
		limit = opts.MaxDoublets
	}
	if v.Setup != nil {
		v.Setup(m)
	}
	rt, err := newReadTemplate(m, v)
	if err != nil {
		return nil, err
	}
	recovered := phr.New(n)
	for k := 0; k < limit; k++ {
		best, bestRate := phr.Doublet(0), -1.0
		found := false
		for x := 0; x < 4; x++ {
			rate, err := rt.candidateRate(m, recovered, k, phr.Doublet(x), opts.Iters)
			if err != nil {
				return nil, fmt.Errorf("core: doublet %d candidate %d: %w", k, x, err)
			}
			if rate > bestRate {
				best, bestRate = phr.Doublet(x), rate
			}
			if rate >= opts.Threshold {
				// The 50% signature: X == P_k. The paper tests all four
				// values; stopping at the first hit is equivalent and
				// cheaper.
				found = true
				break
			}
		}
		if !found && bestRate < opts.Threshold {
			// Borderline separation (predictor interference can depress the
			// 50% signature): re-measure every candidate with twice the
			// iterations and accept a clear argmax.
			best, bestRate = 0, -1.0
			for x := 0; x < 4; x++ {
				rate, err := rt.candidateRate(m, recovered, k, phr.Doublet(x), 2*opts.Iters)
				if err != nil {
					return nil, fmt.Errorf("core: doublet %d candidate %d (retry): %w", k, x, err)
				}
				if rate > bestRate {
					best, bestRate = phr.Doublet(x), rate
				}
			}
			if bestRate < opts.Threshold*0.6 {
				return nil, fmt.Errorf("core: doublet %d: no candidate crossed threshold (best %.2f)", k, bestRate)
			}
		}
		recovered.SetDoublet(k, best)
	}
	return recovered, nil
}

// readDoubletCandidate runs one train/test experiment (Figure 4) and
// returns the test branch's misprediction rate.
func readDoubletCandidate(m *cpu.Machine, v Victim, known *phr.Reg, k int, x phr.Doublet, iters int) (float64, error) {
	n := m.Arch().PHRSize
	// Candidate PHR for the not-taken path: X at the top, the known
	// doublets P_{k-1}..P_0 right below it, zeros at the bottom — the same
	// image the taken path produces by shifting the victim PHR by n-1-k.
	cand := phr.New(n)
	cand.SetDoublet(n-1, x)
	for j := 0; j < k; j++ {
		cand.SetDoublet(n-1-k+j, known.Doublet(j))
	}
	shift := n - 1 - k

	a := isa.NewAssembler()
	v.emitInto(a)
	a.Label("main")
	a.MovI(rIter, 0)
	a.MovI(rIters, int64(iters))
	a.MovI(rOne, 1)
	a.Label("loop")
	a.Rand(rCoin)
	a.And(rCoin, rCoin, rOne)
	a.Label("train")
	a.Br(isa.EQ, rCoin, rOne, "pathA")
	// Path B (train not taken): write the candidate PHR; the write chain's
	// final jump lands on the test branch.
	EmitWritePHR(a, "wrB", cand, "test")
	// Path A (train taken): clear, call the victim, shift P_k to the top,
	// then fall through (or shift-jump) to the test branch.
	a.Align(slotAlign, 0)
	a.Label("pathA")
	EmitClearPHR(a, "clrA", n, "callsite")
	a.Align(slotAlign, 0)
	a.Label("callsite")
	a.Call(v.Entry)
	// The victim's RET lands here: keep the return site at callsite+1 so
	// the RET footprint matches the capture layout exactly.
	a.Nop()
	if shift > 0 {
		EmitShiftPHR(a, "shA", shift, "test")
	}
	// The test branch: same condition as the train branch. Its address low
	// bits encode the candidate's doublet 0 so the Write chain's final jump
	// stays consistent; for shift == 0 path A falls straight through.
	a.Align(slotAlign, WriteContOffset(cand))
	a.Label("test")
	a.Br(isa.EQ, rCoin, rOne, "merge")
	a.Label("merge")
	a.AddI(rIter, rIter, 1)
	a.Br(isa.LT, rIter, rIters, "loop")
	a.Halt()

	p, err := a.Assemble()
	if err != nil {
		return 0, err
	}
	testAddr := p.MustSymbol("test")
	m.ResetStats()
	if err := m.Run(p, "main"); err != nil {
		return 0, err
	}
	return m.Branch(testAddr).MispredictRate(), nil
}

// aliasedBranchProgram builds a program that repeatedly (1) writes a chosen
// PHR and (2) executes a conditional branch whose address aliases victimPC
// (equal low 16 bits) with a per-iteration outcome read from memory. It is
// the shared engine of Write_PHT and Read_PHT.
const outcomeTableAddr = 0x00f0_0000

// aliasedBranchProgram returns the per-machine alias template for
// victimPC's low 16 bits, patched for this (target, outcomes) call, with
// the outcome table written to memory. The returned program is owned by
// the machine's template cache and only valid until the next call.
func aliasedBranchProgram(m *cpu.Machine, victimPC uint64, target *phr.Reg, outcomes []bool) (*isa.Program, uint64, error) {
	low := victimPC & 0xffff
	c := cachesOf(m)
	t := c.alias[low]
	if t == nil || t.n != m.Arch().PHRSize {
		var err error
		t, err = newAliasTemplate(m.Arch().PHRSize, low)
		if err != nil {
			return nil, 0, err
		}
		c.alias[low] = t
	}
	aliasAddr, err := t.patch(target, len(outcomes))
	if err != nil {
		return nil, 0, err
	}
	for i, o := range outcomes {
		v := uint64(0)
		if o {
			v = 1
		}
		m.Mem.Write64(outcomeTableAddr+uint64(8*i), v)
	}
	return t.prog, aliasAddr, nil
}

// buildAliasedBranchProgram is the fresh-assembly shape behind the alias
// template: the write-chain/landing/aliased-branch loop of Write_PHT and
// Read_PHT.
func buildAliasedBranchProgram(low uint64, target *phr.Reg, iters int) (*isa.Program, error) {
	a := isa.NewAssembler()
	a.Org(AttackerBase)
	a.Label("main")
	a.MovI(rIter, 0)
	a.MovI(rIters, int64(iters))
	a.MovI(rOne, 1)
	a.MovI(rTable, outcomeTableAddr)
	a.Align(slotAlign, 0)
	a.Label("loop")
	EmitWritePHR(a, "wrp", target, "landing")
	a.Align(slotAlign, WriteContOffset(target))
	a.Label("landing")
	// Straight-line from the chain landing to the aliased branch: no taken
	// branches, so the PHR still holds target at the branch.
	a.ShlI(isa.R10, rIter, 3)
	a.Add(isa.R10, rTable, isa.R10)
	a.Ld(rOutcome, isa.R10, 0)
	a.Align(slotAlign, low)
	a.Label("alias")
	a.Br(isa.EQ, rOutcome, rOne, "after") // "je .+1": both directions converge
	a.Label("after")
	a.AddI(rIter, rIter, 1)
	a.Br(isa.LT, rIter, rIters, "loop")
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		return nil, err
	}
	aliasAddr := p.MustSymbol("alias")
	if aliasAddr&0xffff != low {
		return nil, fmt.Errorf("core: alias misplaced: %#x vs low %#x", aliasAddr, low)
	}
	return p, nil
}

// WritePHT is Attack Primitive 2, "Write_PHT(PC, PHR, value)": it drives
// the PHT entry reached by the victim's branch at (pc, target-PHR) to a
// saturated taken or not-taken state. An alternating warm-up forces
// mispredictions so the entry cascades into the full-history tagged table,
// then eight executions with the desired outcome saturate the 3-bit
// counter (§4.3).
func WritePHT(m *cpu.Machine, pc uint64, target *phr.Reg, taken bool) error {
	outcomes := []bool{true, false, true, false, true, false}
	for i := 0; i < 8; i++ {
		outcomes = append(outcomes, taken)
	}
	p, _, err := aliasedBranchProgram(m, pc, target, outcomes)
	if err != nil {
		return err
	}
	return m.Run(p, "main")
}

// ReadPHT is Attack Primitive 3, "Read_PHT(PC, PHR)": it probes the entry
// at (pc, target-PHR) with `probes` taken executions and returns how many
// of them mispredicted — the paper's counter readout, where 4 mispredicts
// mean the entry sat at strongly-not-taken, 2 that it had moved two steps,
// and 0 that it already predicted taken (§4.4). Compose with WritePHT
// (prime) and a victim run (test) for the full prime+test+probe sequence.
func ReadPHT(m *cpu.Machine, pc uint64, target *phr.Reg, probes int) (int, error) {
	if probes <= 0 {
		probes = 4
	}
	outcomes := make([]bool, probes)
	for i := range outcomes {
		outcomes[i] = true
	}
	p, aliasAddr, err := aliasedBranchProgram(m, pc, target, outcomes)
	if err != nil {
		return 0, err
	}
	m.ResetStats()
	if err := m.Run(p, "main"); err != nil {
		return 0, err
	}
	return int(m.Branch(aliasAddr).Mispredicted), nil
}

// RunAliased executes a conditional branch aliasing victimPC with the given
// path history once per scheduled outcome, returning how many executions
// mispredicted. It is the raw measurement behind Write_PHT/Read_PHT, also
// used by the Observation-2 counter-width experiment.
func RunAliased(m *cpu.Machine, victimPC uint64, target *phr.Reg, outcomes []bool) (int, error) {
	p, aliasAddr, err := aliasedBranchProgram(m, victimPC, target, outcomes)
	if err != nil {
		return 0, err
	}
	before := m.Branch(aliasAddr).Mispredicted
	if err := m.Run(p, "main"); err != nil {
		return 0, err
	}
	return int(m.Branch(aliasAddr).Mispredicted - before), nil
}

// DoubletCandidateRates runs the Figure 4 train/test experiment for doublet
// k with every candidate value X, returning the test branch's misprediction
// rate per X: ~50% for X == P_k and ~0% otherwise.
func DoubletCandidateRates(m *cpu.Machine, v Victim, known *phr.Reg, k, iters int) ([4]float64, error) {
	var rates [4]float64
	if iters <= 0 {
		iters = 48
	}
	if v.Setup != nil {
		v.Setup(m)
	}
	rt, err := newReadTemplate(m, v)
	if err != nil {
		return rates, err
	}
	for x := 0; x < 4; x++ {
		r, err := rt.candidateRate(m, known, k, phr.Doublet(x), iters)
		if err != nil {
			return rates, err
		}
		rates[x] = r
	}
	return rates, nil
}

// BuildCaptureProgram assembles the canonical capture program: victim at
// VictimBase, a Clear_PHR chain, a 64 KiB-aligned call site (label
// "cap_call", the Pathfinder Entry anchor) and a halt pad. Entry label:
// "cap_main".
func BuildCaptureProgram(m *cpu.Machine, v Victim) (*isa.Program, error) {
	return buildCaptureProgram(m, v)
}
