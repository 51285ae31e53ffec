package core

import (
	"fmt"
	"math/rand"

	"pathfinder/internal/jpeg"
	"pathfinder/internal/media"
	"testing"

	"pathfinder/internal/cpu"
	"pathfinder/internal/isa"
	"pathfinder/internal/pathfinder"
	"pathfinder/internal/phr"
)

// mimic the image victim shape in-package: loop with per-iteration secret
// branch; big enough to exceed the window; junction-heavy via a 7-way
// check chain converging on one label.
func chainVictim(trips int64, pattern []byte) Victim {
	return Victim{
		Entry: "victim",
		Emit: func(a *isa.Assembler) {
			a.VariableStride()
			a.Label("victim")
			a.MovI(isa.R1, 0)
			a.MovI(isa.R2, trips)
			a.MovI(isa.R5, patternAddr)
			a.Label("vloop")
			a.Add(isa.R3, isa.R5, isa.R1)
			a.LdB(isa.R4, isa.R3, 0)
			for k := 1; k <= 7; k++ {
				a.MovI(isa.R6, int64(k))
				a.Label(fmt.Sprintf("chk%d", k))
				a.Br(isa.EQ, isa.R4, isa.R6, "complex")
			}
			a.AddI(isa.R8, isa.R8, 1)
			a.Jmp("next")
			a.Label("complex")
			a.AddI(isa.R9, isa.R9, 1)
			a.Label("next")
			a.AddI(isa.R1, isa.R1, 1)
			a.Label("vback")
			a.Br(isa.LT, isa.R1, isa.R2, "vloop")
			a.Ret()
		},
		Setup: func(m *cpu.Machine) { m.Mem.WriteBytes(patternAddr, pattern) },
	}
}

func TestXDebugJunction(t *testing.T) {
	const trips = 120
	pattern := make([]byte, trips)
	for i := range pattern {
		pattern[i] = byte((i * 7) % 9) // values 0..8; 1..7 go complex at chk k
	}
	v := chainVictim(trips, pattern)
	m := cpu.New(cpu.Options{Seed: 5})
	capProg, _ := buildCaptureProgram(m, v)
	window, err := ReadPHR(m, v, ReadPHROptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := pathfinder.Build(capProg)
	entry := capProg.MustSymbol("cap_call")
	dag, err := cfg.SearchDAG(pathfinder.Spec{Observed: window, Entry: entry, Final: entry + 1, MaxReversals: 194})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("terminals=%d deepestNil=%v", len(dag.Terminals), dag.Deepest == pathfinder.NoNode)
	// trace climb
	oracle := map[instanceKey]bool{}
	cl, probes, err := climbSuffix(m, v, capProg, window, dag, nil, ExtendedOptions{Rounds: 6, MaxUnknownRun: 3}, oracle)
	t.Logf("climb: suffix=%d probes=%d err=%v", len(cl.suffix), probes, err)
	_ = phr.FootprintDoublets
}

func TestXDebugFullExtended(t *testing.T) {
	const trips = 120
	rng := rand.New(rand.NewSource(31))
	pattern := make([]byte, trips)
	for i := range pattern {
		pattern[i] = byte(rng.Intn(9))
	}
	v := chainVictim(trips, pattern)
	m := cpu.New(cpu.Options{Seed: 5})
	res, err := ExtendedReadPHR(m, v, ExtendedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ext=%d complete=%v", len(res.Ext), res.Path.Complete)
	// verify against truth
	m2 := cpu.New(cpu.Options{Seed: 5})
	var fps []pathfinder.Step
	m2.TraceTaken = func(pc, tgt uint64) { fps = append(fps, pathfinder.Step{Addr: pc, Target: tgt, Taken: true}) }
	v.Setup(m2)
	m2.Run(res.CaptureProgram, "cap_main")
	truth := fps[194:]
	var rec []pathfinder.Step
	for _, s := range res.Path.Steps {
		if s.Taken {
			rec = append(rec, s)
		}
	}
	if len(rec) != len(truth) {
		t.Fatalf("len mismatch %d vs %d", len(rec), len(truth))
	}
	for i := range rec {
		if rec[i].Addr != truth[i].Addr {
			t.Fatalf("divergence at %d", i)
		}
	}
	t.Log("exact recovery")
}

const xCoefBase = 0x0040_0000

func xIDCTVictim(nblocks int, coef []jpeg.Block) Victim {
	return Victim{
		Entry: "idct_entry",
		Emit: func(a *isa.Assembler) {
			a.VariableStride()
			a.Label("idct_entry")
			a.MovI(isa.R1, 0)
			a.MovI(isa.R2, int64(nblocks))
			a.MovI(isa.R12, 0)
			a.MovI(isa.R13, 8)
			a.MovI(isa.R14, xCoefBase)
			a.Label("idct_blkloop")
			a.ShlI(isa.R3, isa.R1, 9)
			a.Add(isa.R3, isa.R14, isa.R3)
			a.MovI(isa.R5, 0)
			a.Label("idct_colloop")
			a.ShlI(isa.R6, isa.R5, 3)
			a.Add(isa.R6, isa.R3, isa.R6)
			for k := 1; k <= 7; k++ {
				a.Ld(isa.R7, isa.R6, int64(64*k))
				a.Label(fmt.Sprintf("idct_colchk%d", k))
				a.Br(isa.NE, isa.R7, isa.R12, "idct_colcomplex")
			}
			a.AddI(isa.R8, isa.R8, 1)
			a.Jmp("idct_colnext")
			a.Label("idct_colcomplex")
			a.AddI(isa.R9, isa.R9, 1)
			a.AddI(isa.R9, isa.R9, 1)
			a.Label("idct_colnext")
			a.AddI(isa.R5, isa.R5, 1)
			a.Label("idct_colback")
			a.Br(isa.LT, isa.R5, isa.R13, "idct_colloop")
			a.MovI(isa.R5, 0)
			a.Label("idct_rowloop")
			a.ShlI(isa.R6, isa.R5, 6)
			a.Add(isa.R6, isa.R3, isa.R6)
			for k := 1; k <= 7; k++ {
				a.Ld(isa.R7, isa.R6, int64(8*k))
				a.Label(fmt.Sprintf("idct_rowchk%d", k))
				a.Br(isa.NE, isa.R7, isa.R12, "idct_rowcomplex")
			}
			a.AddI(isa.R8, isa.R8, 1)
			a.Jmp("idct_rownext")
			a.Label("idct_rowcomplex")
			a.AddI(isa.R9, isa.R9, 1)
			a.AddI(isa.R9, isa.R9, 1)
			a.Label("idct_rownext")
			a.AddI(isa.R5, isa.R5, 1)
			a.Label("idct_rowback")
			a.Br(isa.LT, isa.R5, isa.R13, "idct_rowloop")
			a.AddI(isa.R1, isa.R1, 1)
			a.Label("idct_blkback")
			a.Br(isa.LT, isa.R1, isa.R2, "idct_blkloop")
			a.Ret()
		},
		Setup: func(m *cpu.Machine) {
			for b := range coef {
				for i, vv := range coef[b] {
					m.Mem.Write64(xCoefBase+uint64((b*64+i)*8), uint64(int64(vv)))
				}
			}
		},
	}
}

func TestXDebugIDCT(t *testing.T) {
	img := media.QRLike(24, 24, 7)
	enc, _ := jpeg.Encode(img.Pix, img.W, img.H, 60)
	_, blocks, _ := jpeg.DecodeBlocks(enc)
	v := xIDCTVictim(len(blocks), blocks)
	m := cpu.New(cpu.Options{Seed: 9})
	capProg, _ := buildCaptureProgram(m, v)

	// ground truth
	m2 := cpu.New(cpu.Options{Seed: 9})
	var truth []pathfinder.Step
	m2.TraceTaken = func(pc, tgt uint64) { truth = append(truth, pathfinder.Step{Addr: pc, Target: tgt, Taken: true}) }
	v.Setup(m2)
	m2.Run(capProg, "cap_main")
	truth = truth[194:]

	window, err := ReadPHR(m, v, ReadPHROptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := pathfinder.Build(capProg)
	entry := capProg.MustSymbol("cap_call")
	oracle := map[instanceKey]bool{}
	var ext []phr.Doublet
	dag, err := cfg.SearchDAG(pathfinder.Spec{Observed: window, Ext: ext, Entry: entry, Final: entry + 1, MaxReversals: 194})
	if err != nil {
		t.Fatal(err)
	}
	cl, _, err := climbSuffix(m, v, capProg, window, dag, ext, ExtendedOptions{Rounds: 6, MaxUnknownRun: 3, Batch: 64}, oracle)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("suffix=%d", len(cl.suffix))
	for i := 0; i < len(cl.suffix) && i < 40; i++ {
		want := truth[len(truth)-1-i]
		if cl.suffix[i].Addr != want.Addr || cl.suffix[i].Target != want.Target {
			t.Fatalf("suffix[%d] = %#x->%#x, truth %#x->%#x", i, cl.suffix[i].Addr, cl.suffix[i].Target, want.Addr, want.Target)
		}
	}
	t.Log("suffix prefix matches truth")
}
