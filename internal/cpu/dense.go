package cpu

import (
	"fmt"

	"pathfinder/internal/aes"
	"pathfinder/internal/bpu"
	"pathfinder/internal/isa"
	"pathfinder/internal/phr"
)

// This file is the dense execution engine: a flattened-dispatch interpreter
// over a predecoded instruction stream, used automatically for every run
// that carries no observation hooks. It must be observationally identical
// to the scalar interpreter in cpu.go — same architectural state, same
// predictor and cache state, same counters, same error strings. The
// differential suite (FuzzBatchVsScalar, the engine parity tests and the
// golden end-to-end reports) pins that equivalence; when touching either
// engine, change both.
//
// What makes it faster than exec:
//
//   - denseInstr is 40 bytes against isa.Instr's 72 and drops the Sym
//     string, so the dispatch loop walks a compact, pointer-free stream.
//   - Direct control transfers are pre-resolved to program indices at
//     decode time (exec re-resolves hand-built instructions per execution).
//   - The predictor calls go straight to the concrete *bpu.CBP; exec goes
//     through the bpu.Predictor interface. Both reach the same content-keyed
//     fold table, so the engines differ only in dispatch.
//   - Instruction and cycle counts accumulate in locals and are flushed to
//     m.stats only around the cold paths that observe them.
//   - A run of direct JMPs executes as one step from a summary built the
//     first time a run enters the chain at that instruction (jumpChain).
type denseInstr struct {
	addr      uint64
	imm       int64
	target    uint64
	targetIdx int32 // pre-resolved program index; -1 = unresolvable hole
	op        isa.Op
	cond      isa.Cond
	rd, rs    uint8
	rt, vd    uint8
	chain     int32 // JMP only: 1-based index into progState.chains; 0 = not built yet, -1 = no run to fuse
}

// jumpChain summarizes the run of direct JMPs entered at one instruction:
// the chain follows jump targets while they are JMPs with a resolved
// target, for at most maxJumpChain jumps and BTBRunSlots BTB slots. One
// step that applies it leaves the PHR, the BTB (entries and dirty bits) and
// the counters exactly as its jumps executed one by one would. A chain never
// includes a jump to a hole, which then runs, and errors, on its own.
type jumpChain struct {
	phr  phr.Run
	btb  bpu.BTBRun
	land int32 // program index the last jump lands on
}

// maxJumpChain caps a chain's length so that building one terminates on a
// jump cycle (j: jmp j). The §4 gadgets are at most 194 jumps long.
const maxJumpChain = 1024

// buildChain summarizes the chain entered at code[idx], a JMP, and returns
// its denseInstr.chain value: a 1-based index into ps.chains, or -1 when the
// chain has fewer than two jumps and the plain JMP path is as fast.
func (ps *progState) buildChain(code []denseInstr, idx int) int32 {
	var c jumpChain
	for c.phr.Len() < maxJumpChain {
		in := &code[idx]
		if in.op != isa.JMP || in.targetIdx < 0 || !c.btb.Add(in.addr, in.target) {
			break
		}
		c.phr.Add(phr.Footprint(in.addr, in.target))
		idx = int(in.targetIdx)
	}
	if c.phr.Len() < 2 {
		return -1
	}
	c.land = int32(idx)
	ps.chains = append(ps.chains, c)
	return int32(len(ps.chains))
}

// denseEligible reports whether runs on this machine may use the dense
// engine. Any observation or substitution hook forces the scalar
// interpreter: fault injection and taken-branch tracing observe execution
// at points the dense loop compiles away, and a custom predictor defeats
// the concrete-CBP specialization.
func (m *Machine) denseEligible() bool {
	return !m.opts.scalar && m.inj == nil && m.TraceTaken == nil && m.opts.NewPredictor == nil
}

// denseFor returns the predecoded stream for prog, rebuilding it when the
// program's version moved (Reindex bumps it after in-place mutation). A
// rebuild drops every jump-chain summary, which the new addresses may
// change.
func (m *Machine) denseFor(ps *progState, prog *isa.Program) []denseInstr {
	if ps.denseOK && ps.denseVersion == prog.Version() && len(ps.dense) == len(prog.Instrs) {
		return ps.dense
	}
	ps.chains = ps.chains[:0]
	if cap(ps.dense) < len(prog.Instrs) {
		ps.dense = make([]denseInstr, len(prog.Instrs))
	}
	ps.dense = ps.dense[:len(prog.Instrs)]
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		d := &ps.dense[i]
		*d = denseInstr{
			addr:      in.Addr,
			imm:       in.Imm,
			target:    in.Target,
			targetIdx: in.TargetIdx,
			op:        in.Op,
			cond:      in.Cond,
			rd:        uint8(in.Rd),
			rs:        uint8(in.Rs),
			rt:        uint8(in.Rt),
			vd:        uint8(in.Vd),
		}
		if d.targetIdx < 0 && (in.Op == isa.BR || in.Op == isa.JMP || in.Op == isa.CALL) {
			// Hand-built instructions: resolve through the address map once
			// at decode time instead of per execution. A hole stays -1 and
			// errors at execution time, exactly when exec would.
			if ti, ok := prog.IndexOf(in.Target); ok {
				d.targetIdx = int32(ti)
			}
		}
	}
	ps.denseVersion = prog.Version()
	ps.denseOK = true
	return ps.dense
}

// execDense is the dense-engine counterpart of exec. See the file comment
// for the equivalence contract.
func (m *Machine) execDense(h *Hart, prog *isa.Program, idx int) error {
	ps := m.progState(prog)
	code := m.denseFor(ps, prog)
	cbp := m.BPU.CBP
	steps := uint64(0)
	limit := m.opts.StepLimit
	// Local counter images; flushStats writes them back before any cold
	// path that reads m.stats (speculate, RDCYCLE) and before returning.
	instrs, cycles := m.stats.Instructions, m.stats.Cycles
	flushStats := func() {
		m.stats.Instructions, m.stats.Cycles = instrs, cycles
	}
	for {
		if idx < 0 || idx >= len(code) {
			flushStats()
			return fmt.Errorf("cpu: execution ran off the program (index %d)", idx)
		}
		if steps >= limit {
			flushStats()
			return fmt.Errorf("cpu: step limit %d exceeded at %#x", limit, code[idx].addr)
		}
		steps++
		instrs++
		cycles++
		in := &code[idx]

		switch in.op {
		case isa.NOP:
		case isa.HALT:
			flushStats()
			return nil

		case isa.MOVI:
			h.regs[in.rd] = uint64(in.imm)
			h.ready[in.rd] = cycles
		case isa.MOV:
			h.regs[in.rd] = h.regs[in.rs]
			h.ready[in.rd] = maxu(cycles, h.ready[in.rs])
		case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.MUL:
			h.regs[in.rd] = alu(in.op, h.regs[in.rs], h.regs[in.rt])
			h.ready[in.rd] = maxu(cycles, maxu(h.ready[in.rs], h.ready[in.rt]))
		case isa.ADDI:
			h.regs[in.rd] = h.regs[in.rs] + uint64(in.imm)
			h.ready[in.rd] = maxu(cycles, h.ready[in.rs])
		case isa.XORI:
			h.regs[in.rd] = h.regs[in.rs] ^ uint64(in.imm)
			h.ready[in.rd] = maxu(cycles, h.ready[in.rs])
		case isa.SHLI:
			h.regs[in.rd] = h.regs[in.rs] << uint64(in.imm)
			h.ready[in.rd] = maxu(cycles, h.ready[in.rs])
		case isa.SHRI:
			h.regs[in.rd] = h.regs[in.rs] >> uint64(in.imm)
			h.ready[in.rd] = maxu(cycles, h.ready[in.rs])

		case isa.LD, isa.LDB, isa.TIMEDLD:
			addr := h.regs[in.rs] + uint64(in.imm)
			lat, _ := m.Data.Access(addr)
			switch in.op {
			case isa.LD:
				h.regs[in.rd] = m.Mem.Read64(addr)
			case isa.LDB:
				h.regs[in.rd] = uint64(m.Mem.Read8(addr))
			case isa.TIMEDLD:
				h.regs[in.rd] = uint64(lat)
			}
			h.ready[in.rd] = cycles + uint64(lat)
		case isa.ST:
			m.Data.Access(h.regs[in.rs] + uint64(in.imm))
			m.Mem.Write64(h.regs[in.rs]+uint64(in.imm), h.regs[in.rt])
		case isa.STB:
			m.Data.Access(h.regs[in.rs] + uint64(in.imm))
			m.Mem.Write8(h.regs[in.rs]+uint64(in.imm), byte(h.regs[in.rt]))
		case isa.CLFLUSH:
			m.Data.Flush(h.regs[in.rs] + uint64(in.imm))

		case isa.RAND:
			h.regs[in.rd] = h.rng.next()
			h.ready[in.rd] = cycles
		case isa.RDCYCLE:
			h.regs[in.rd] = cycles
			h.ready[in.rd] = cycles

		case isa.VLD:
			addr := h.regs[in.rs] + uint64(in.imm)
			m.Data.Access(addr)
			h.vregs[in.vd] = m.Mem.Read128(addr)
		case isa.VST:
			addr := h.regs[in.rs] + uint64(in.imm)
			m.Data.Access(addr)
			m.Mem.Write128(addr, h.vregs[in.vd])
		case isa.VXOR:
			addr := h.regs[in.rs] + uint64(in.imm)
			m.Data.Access(addr)
			h.vregs[in.vd] = aes.XorBlocks(h.vregs[in.vd], m.Mem.Read128(addr))
		case isa.AESENC:
			addr := h.regs[in.rs] + uint64(in.imm)
			m.Data.Access(addr)
			h.vregs[in.vd] = aes.EncRound(h.vregs[in.vd], m.Mem.Read128(addr))
		case isa.AESENCLAST:
			addr := h.regs[in.rs] + uint64(in.imm)
			m.Data.Access(addr)
			h.vregs[in.vd] = aes.EncLastRound(h.vregs[in.vd], m.Mem.Read128(addr))

		case isa.BR:
			taken := in.cond.Eval(h.regs[in.rs], h.regs[in.rt])
			pred := cbp.Predict(in.addr, h.PHR)
			ref := &ps.stats[idx]
			if ref.s == nil || ref.addr != in.addr {
				ref.addr, ref.s = in.addr, m.branchStat(in.addr)
			}
			st := ref.s
			st.Executed++
			m.stats.CondBranches++
			if taken {
				st.Taken++
			}
			if pred.Taken != taken {
				st.Mispredicted++
				m.stats.Mispredicts++
				flushStats()
				m.speculate(h, prog, idx, pred.Taken)
				cycles = m.stats.Cycles + uint64(m.opts.MispredictPenalty)
			}
			cbp.Update(in.addr, h.PHR, taken, pred)
			if taken {
				h.PHR.UpdateBranch(in.addr, in.target)
				m.stats.TakenBranches++
				m.BPU.BTB.Insert(in.addr, in.target)
				if in.targetIdx < 0 {
					flushStats()
					return fmt.Errorf("cpu: branch at %#x to hole %#x", in.addr, in.target)
				}
				idx = int(in.targetIdx)
				continue
			}

		case isa.JMP:
			if in.chain == 0 {
				in.chain = ps.buildChain(code, idx)
			}
			if in.chain > 0 {
				// Fuse only when every jump of the chain fits under the step
				// limit; otherwise they run singly, so that the limit error
				// names the same address with the same counters.
				c := &ps.chains[in.chain-1]
				if n := uint64(c.phr.Len()); steps-1+n <= limit {
					h.PHR.UpdateRun(&c.phr)
					m.BPU.BTB.InsertRun(&c.btb)
					m.stats.TakenBranches += n
					steps += n - 1
					instrs += n - 1
					cycles += n - 1
					idx = int(c.land)
					continue
				}
			}
			h.PHR.UpdateBranch(in.addr, in.target)
			m.stats.TakenBranches++
			m.BPU.BTB.Insert(in.addr, in.target)
			if in.targetIdx < 0 {
				flushStats()
				return fmt.Errorf("cpu: jmp at %#x to hole %#x", in.addr, in.target)
			}
			idx = int(in.targetIdx)
			continue

		case isa.CALL:
			if idx+1 >= len(code) {
				flushStats()
				return fmt.Errorf("cpu: call at %#x has no return point", in.addr)
			}
			h.stack = append(h.stack, frame{retIdx: idx + 1})
			h.PHR.UpdateBranch(in.addr, in.target)
			m.stats.TakenBranches++
			m.BPU.BTB.Insert(in.addr, in.target)
			if in.targetIdx < 0 {
				flushStats()
				return fmt.Errorf("cpu: call at %#x to hole %#x", in.addr, in.target)
			}
			idx = int(in.targetIdx)
			continue

		case isa.RET:
			if len(h.stack) == 0 {
				flushStats()
				return nil // return from the entry frame ends the run
			}
			f := h.stack[len(h.stack)-1]
			h.stack = h.stack[:len(h.stack)-1]
			if f.restoreDomain {
				h.Domain = f.prevDomain
			}
			if f.retIdx < 0 || f.retIdx >= len(code) {
				flushStats()
				return nil
			}
			target := code[f.retIdx].addr
			h.PHR.UpdateBranch(in.addr, target)
			m.stats.TakenBranches++
			m.BPU.IBP.Insert(in.addr, h.PHR, target)
			idx = f.retIdx
			continue

		case isa.JR:
			target := h.regs[in.rs]
			ti, ok := prog.IndexOf(target)
			if !ok {
				flushStats()
				return fmt.Errorf("cpu: jr at %#x to hole %#x", in.addr, target)
			}
			h.PHR.UpdateBranch(in.addr, target)
			m.stats.TakenBranches++
			m.BPU.IBP.Insert(in.addr, h.PHR, target)
			idx = ti
			continue

		case isa.SYSCALL, isa.EENTER:
			ti, err := m.enterStub(h, prog, idx, in.op, in.imm, in.addr)
			if err != nil {
				flushStats()
				return err
			}
			idx = ti
			continue

		case isa.IBPB:
			m.BPU.IBPB()

		default:
			flushStats()
			return fmt.Errorf("cpu: unimplemented op %v at %#x", in.op, in.addr)
		}
		idx++
	}
}
