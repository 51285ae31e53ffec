package victim

import (
	"testing"

	"pathfinder/internal/aes"
	"pathfinder/internal/cpu"
	"pathfinder/internal/isa"
	"pathfinder/internal/jpeg"
)

func TestAESVictimMatchesReference(t *testing.T) {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i*31 + 7)
	}
	ctx, err := NewAESContext(key)
	if err != nil {
		t.Fatal(err)
	}
	m := cpu.New(cpu.Options{})
	ctx.Install(m)
	prog, err := AESVictim().Build()
	if err != nil {
		t.Fatal(err)
	}
	var pt aes.Block
	for i := range pt {
		pt[i] = byte(200 - i)
	}
	if err := VerifyAESProgram(m, prog, ctx, pt); err != nil {
		t.Fatal(err)
	}
}

func TestProbeSlotLayout(t *testing.T) {
	seen := map[uint64]bool{}
	for pos := 0; pos < 16; pos++ {
		for v := 0; v < 256; v += 17 {
			a := ProbeSlot(pos, byte(v))
			if seen[a] {
				t.Fatal("probe slots collide")
			}
			seen[a] = true
		}
	}
	if ProbeSlot(1, 0)-ProbeSlot(0, 0) != AESProbeRange {
		t.Fatal("probe region stride")
	}
}

func TestFlushReadProbe(t *testing.T) {
	m := cpu.New(cpu.Options{})
	m.Data.Access(ProbeSlot(3, 0x7c))
	vals, counts := ReadProbe(m)
	if counts[3] != 1 || vals[3][0] != 0x7c {
		t.Fatalf("probe readout: %v %d", vals[3], counts[3])
	}
	FlushProbe(m)
	if _, counts = ReadProbe(m); counts != [16]int{} {
		t.Fatalf("flush left hits: %v", counts)
	}
}

func TestKernelStubBranchCounts(t *testing.T) {
	a := isa.NewAssembler()
	a.Label("main")
	a.Syscall(4)
	a.Halt()
	EmitKernelStub(a, "__kernel_4", nil)
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	m := cpu.New(cpu.Options{})
	m.RegisterKernelStub(4, "__kernel_4")
	if err := m.Run(p, "main"); err != nil {
		t.Fatal(err)
	}
	// §7.1: entry ~23 branch outcomes, exit ~7 (including the final RET).
	if got := m.Stats().TakenBranches; got != SyscallEntryBranches+SyscallExitBranches {
		t.Fatalf("stub executed %d taken branches, want %d", got, SyscallEntryBranches+SyscallExitBranches)
	}
}

func TestIDCTVictimBuilds(t *testing.T) {
	blocks := make([]jpeg.Block, 2)
	blocks[1][9] = 5
	v := IDCTVictim(2, blocks)
	prog, err := v.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := cpu.New(cpu.Options{})
	v.Setup(m)
	if err := m.Run(prog, v.Entry); err != nil {
		t.Fatal(err)
	}
	cols, rows := IDCTCheckLabels()
	for _, l := range append(cols[:], rows[:]...) {
		if _, ok := prog.SymbolAddr(l); !ok {
			t.Fatalf("check label %s missing", l)
		}
	}
}

func TestPatternedLoopAndRandomCFGRun(t *testing.T) {
	v := PatternedLoop(40, RandomPattern(40, 3))
	prog, err := v.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := cpu.New(cpu.Options{})
	v.Setup(m)
	if err := m.Run(prog, v.Entry); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		rv := RandomCFG(seed, 6)
		rp, err := rv.Build()
		if err != nil {
			t.Fatal(err)
		}
		mm := cpu.New(cpu.Options{})
		rv.Setup(mm)
		if err := mm.Run(rp, rv.Entry); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestSecretBitVictimDirections(t *testing.T) {
	const addr = 0x00d0_0000
	v := SecretBitVictim(addr, 0x1234)
	prog, err := v.Build()
	if err != nil {
		t.Fatal(err)
	}
	pc := prog.MustSymbol("sbit_branch")
	if pc&0xffff != 0x1234 {
		t.Fatalf("branch placed at %#x", pc)
	}
	for _, bit := range []byte{0, 1} {
		m := cpu.New(cpu.Options{})
		m.Mem.Write8(addr, bit)
		if err := m.Run(prog, v.Entry); err != nil {
			t.Fatal(err)
		}
		taken := m.Branch(pc).Taken
		if (bit == 1) != (taken == 1) {
			t.Fatalf("bit %d: taken %d", bit, taken)
		}
	}
}
