package core

import (
	"math/rand"
	"slices"
	"testing"

	"pathfinder/internal/cpu"
	"pathfinder/internal/isa"
	"pathfinder/internal/pathfinder"
	"pathfinder/internal/phr"
)

// loopVictim runs a counted loop with `trips` iterations.
func loopVictim(trips int64) Victim {
	return Victim{
		Entry: "victim",
		Emit: func(a *isa.Assembler) {
			a.Label("victim")
			a.MovI(isa.R1, 0)
			a.MovI(isa.R2, trips)
			a.Label("vloop")
			a.AddI(isa.R1, isa.R1, 1)
			a.Label("vback")
			a.Br(isa.LT, isa.R1, isa.R2, "vloop")
			a.Ret()
		},
	}
}

const patternAddr = 0x00e0_0000

// patternedVictim runs `trips` loop iterations whose body branches on a
// per-iteration secret bit, so the taken-branch history varies and the PHR
// never reaches a fixed point — the workload class (IDCT-like) the
// extended read targets.
func patternedVictim(trips int64, pattern []byte) Victim {
	return Victim{
		Entry: "victim",
		Emit: func(a *isa.Assembler) {
			a.Label("victim")
			a.MovI(isa.R1, 0)
			a.MovI(isa.R2, trips)
			a.MovI(isa.R5, patternAddr)
			a.MovI(isa.R6, 1)
			a.Label("vloop")
			a.Add(isa.R3, isa.R5, isa.R1)
			a.LdB(isa.R4, isa.R3, 0)
			a.Label("vbit")
			a.Br(isa.EQ, isa.R4, isa.R6, "vone")
			a.Nop()
			a.Jmp("vjoin")
			a.Label("vone")
			a.Nop()
			a.Label("vjoin")
			a.AddI(isa.R1, isa.R1, 1)
			a.Label("vback")
			a.Br(isa.LT, isa.R1, isa.R2, "vloop")
			a.Ret()
		},
		Setup: func(m *cpu.Machine) {
			m.Mem.WriteBytes(patternAddr, pattern)
		},
	}
}

func TestExtendedReadPHRLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("extended read in long mode only")
	}
	const trips = 180 // ~360+ taken branches: well beyond the PHR window
	rng := rand.New(rand.NewSource(77))
	pattern := make([]byte, trips)
	ones := 0
	for i := range pattern {
		pattern[i] = byte(rng.Intn(2))
		ones += int(pattern[i])
	}
	v := patternedVictim(trips, pattern)
	m := cpu.New(cpu.Options{Seed: 3})

	// Ground truth: trace the capture run's taken branches.
	truthMachine := cpu.New(cpu.Options{Seed: 3})
	capProg, err := buildCaptureProgram(truthMachine, v)
	if err != nil {
		t.Fatal(err)
	}
	var fps []uint16
	truthMachine.TraceTaken = func(pc, target uint64) { fps = append(fps, phr.Footprint(pc, target)) }
	v.Setup(truthMachine)
	if err := truthMachine.Run(capProg, "cap_main"); err != nil {
		t.Fatal(err)
	}

	res, err := ExtendedReadPHR(m, v, ExtendedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Path.Complete {
		t.Fatal("recovered path incomplete")
	}
	// The complete path must contain exactly the same taken-branch count as
	// the ground truth *after* the clear chain (the path starts at the
	// cleared call site).
	wantTaken := 0
	// Taken branches after the Clear chain: call + victim loop + ret.
	// The clear chain is PHRSize jumps at the start of the trace.
	wantTaken = len(fps) - m.Arch().PHRSize
	gotTaken := 0
	for _, s := range res.Path.Steps {
		if s.Taken {
			gotTaken++
		}
	}
	if gotTaken != wantTaken {
		t.Fatalf("taken branches: got %d want %d", gotTaken, wantTaken)
	}
	// The loop back-edge trip count is recovered exactly even though it
	// exceeds the PHR window (§5 / §6 limitation lifted).
	vback := res.CaptureProgram.MustSymbol("vback")
	if got := res.Path.TakenCount(vback); got != trips-1 {
		t.Fatalf("back-edge count %d, want %d", got, trips-1)
	}
	if len(res.Ext) == 0 {
		t.Fatal("no extension doublets were recovered")
	}
	// And the extension matches the virtual ground-truth history.
	virt := make([]uint8, len(fps)+8)
	for _, f := range fps {
		copy(virt[1:], virt)
		virt[0] = 0
		for i := 0; i < 8; i++ {
			virt[i] ^= uint8(f>>(2*i)) & 3
		}
	}
	for i, d := range res.Ext {
		if virt[194+i] != d {
			t.Fatalf("ext doublet %d: got %d want %d", i, d, virt[194+i])
		}
	}
	// The per-iteration secret bits are recovered from the path.
	vbit := res.CaptureProgram.MustSymbol("vbit")
	var got []byte
	for _, s := range res.Path.Outcomes() {
		if s.Addr == vbit {
			if s.Taken {
				got = append(got, 1)
			} else {
				got = append(got, 0)
			}
		}
	}
	if len(got) != trips {
		t.Fatalf("recovered %d secret bits, want %d", len(got), trips)
	}
	for i := range pattern {
		if got[i] != pattern[i] {
			t.Fatalf("secret bit %d: got %d want %d", i, got[i], pattern[i])
		}
	}
}

func TestExtendedReadPHRInvariantLoopLimitation(t *testing.T) {
	// §6 limitation: a loop with invariant control flow beyond the PHR
	// window drives the register into a fixed point; Extended Read PHR must
	// detect the ambiguity rather than return a wrong count.
	if testing.Short() {
		t.Skip("long mode only")
	}
	v := loopVictim(260)
	m := cpu.New(cpu.Options{Seed: 3})
	_, err := ExtendedReadPHR(m, v, ExtendedOptions{})
	if err == nil {
		t.Fatal("invariant >window loop must be reported as ambiguous")
	}
}

func TestExtendedReadPHRWithinWindow(t *testing.T) {
	// A small victim that fits in the window: no extension needed; the
	// search completes directly after Read_PHR.
	if testing.Short() {
		t.Skip("long mode only")
	}
	v := loopVictim(20)
	m := cpu.New(cpu.Options{Seed: 4})
	res, err := ExtendedReadPHR(m, v, ExtendedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Path.Complete {
		t.Fatal("path incomplete")
	}
	if len(res.Ext) != 0 {
		t.Fatalf("unexpected extension of %d doublets", len(res.Ext))
	}
	vback := res.CaptureProgram.MustSymbol("vback")
	if got := res.Path.TakenCount(vback); got != 19 {
		t.Fatalf("back-edge count %d, want 19", got)
	}
}

// twoSyscallVictim enters one kernel handler from two SYSCALL sites.
func twoSyscallVictim() Victim {
	return Victim{
		Entry: "ts_entry",
		Emit: func(a *isa.Assembler) {
			a.Label("ts_entry")
			a.Label("ts_sys1")
			a.Syscall(1)
			a.Label("ts_sys2")
			a.Syscall(1)
			a.Ret()
			a.Label("ts_handler")
			a.Jmp("ts_handler_ret")
			a.Label("ts_handler_ret")
			a.Ret()
		},
		Transfers: map[string]string{"ts_sys2": "ts_handler", "ts_sys1": "ts_handler"},
	}
}

// The order of TransfersTo sets the search's predecessor order at a
// handler entry, and with it the order of oracle probes, so it must not
// follow map iteration order.
func TestAddTransfersFixedOrder(t *testing.T) {
	v := twoSyscallVictim()
	prog, err := buildCaptureProgram(cpu.New(cpu.Options{}), v)
	if err != nil {
		t.Fatal(err)
	}
	handler := prog.MustSymbol("ts_handler")
	want := []uint64{prog.MustSymbol("ts_sys1"), prog.MustSymbol("ts_sys2")}
	for i := 0; i < 20; i++ {
		cfg, err := pathfinder.Build(prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := addTransfers(cfg, prog, v.Transfers); err != nil {
			t.Fatal(err)
		}
		if got := cfg.TransfersTo(handler); !slices.Equal(got, want) {
			t.Fatalf("build %d: TransfersTo(handler) = %#x, want %#x (label order)", i, got, want)
		}
	}
}
