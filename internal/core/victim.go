// Package core implements the Pathfinder attack primitives of §4 and §5 of
// the paper: Shift_PHR / Clear_PHR / Write_PHR gadget generation, and the
// runtime primitives Write_PHR, Read_PHR, Write_PHT, Read_PHT and
// Extended_Read_PHR, all built from ordinary branches executed on the
// simulated machine. The primitives observe only what a real attacker can:
// code layout, shared-cache timing, and per-branch misprediction counts.
package core

import (
	"fmt"

	"pathfinder/internal/cpu"
	"pathfinder/internal/isa"
)

// Address-space layout shared by every generated attack program. The victim
// is always emitted at VictimBase so its branch addresses — and therefore
// its PHR footprints — are identical across all the programs an attack
// generates. Attacker gadgets live above AttackerBase. Both bases have zero
// low 16 bits so gadget alignment starts clean.
const (
	VictimBase   = 0x0100_0000
	AttackerBase = 0x4000_0000
)

// Victim describes code under attack. Emit writes the victim's instructions
// into an assembler whose cursor sits at VictimBase; Entry is the label the
// attack calls or runs. Setup (optional) initialises victim memory before
// each set of runs.
type Victim struct {
	Entry string
	Emit  func(a *isa.Assembler)
	Setup func(m *cpu.Machine)
	// Transfers maps the label of a SYSCALL/EENTER instruction to the
	// label of its handler, information Pathfinder needs because the
	// binding lives in the machine rather than the binary (§7).
	Transfers map[string]string
}

// Build assembles the victim standalone at VictimBase.
func (v Victim) Build() (*isa.Program, error) {
	if v.Emit == nil || v.Entry == "" {
		return nil, fmt.Errorf("core: victim needs Emit and Entry")
	}
	a := isa.NewAssembler()
	a.Org(VictimBase)
	v.Emit(a)
	p, err := a.Assemble()
	if err != nil {
		return nil, fmt.Errorf("core: assembling victim: %w", err)
	}
	if _, ok := p.SymbolAddr(v.Entry); !ok {
		return nil, fmt.Errorf("core: victim entry %q not defined", v.Entry)
	}
	return p, nil
}

// emitInto writes the victim at VictimBase into a larger attack program and
// moves the cursor to AttackerBase for the harness. The harness relies on
// single-byte instruction strides (e.g. the return pad at call site + 1),
// so any stride the victim selected is reset.
func (v Victim) emitInto(a *isa.Assembler) {
	a.Org(VictimBase)
	v.Emit(a)
	a.Stride(1)
	a.Org(AttackerBase)
}
