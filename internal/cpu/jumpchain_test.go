package cpu

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"pathfinder/internal/bpu"
	"pathfinder/internal/isa"
)

// This file pins the dense engine's jump-chain fusion (dense.go) to the
// scalar interpreter on Write_PHR-shaped programs: chains of direct jumps
// whose slots sit at 64 KiB boundaries plus small offsets, so that a chain
// of any length writes only a few BTB slots.

// slotBound is the PHR gadgets' slot alignment (internal/core).
const slotBound = 0x1_0000

// emitChain emits a chain of len(offs) jumps: slot i at a slotBound
// boundary plus offs[i], labelled uniq+i, jumping to slot i+1 and the last
// one to cont.
func emitChain(a *isa.Assembler, uniq string, offs []uint64, cont string) {
	for i, off := range offs {
		a.Align(slotBound, off)
		a.Label(fmt.Sprint(uniq, i))
		next := cont
		if i+1 < len(offs) {
			next = fmt.Sprint(uniq, i+1)
		}
		a.Jmp(next)
	}
}

// Tails of a chain program, run after its loop ends.
const (
	tailHalt  = iota
	tailSelf  // j: jmp j, into the step limit
	tailCycle // a two-jump cycle, into the step limit
	numTails
)

// chainShape describes a chain program: a counted loop whose coin branch
// either falls into a chain at its first slot or enters it through the
// branch at slot entry; the chain's last jump lands on the loop's tail.
type chainShape struct {
	offs  []uint64 // chain slot offsets from their slotBound boundaries
	entry int      // slot the coin branch enters at
	trips int64    // loop iterations
	tail  int      // tailHalt, tailSelf or tailCycle
	hole  int      // slot whose jump is re-targeted at a hole; -1 for none
}

// holeAddr is an address no chain program places an instruction at.
const holeAddr = 0x7777_0003

// program assembles the shape. The loop code sits at 0x1800 and the join at
// offset 0x800 of a slot boundary, so that only the chain writes BTB bank 0
// (slots 0–63); a dropped dirty bit there then shows in a dirty restore.
func (s chainShape) program(t testing.TB) *isa.Program {
	t.Helper()
	a := isa.NewAssembler()
	a.Org(0x1800)
	a.Label("main")
	a.MovI(isa.R1, 0)
	a.MovI(isa.R2, s.trips)
	a.MovI(isa.R4, 1)
	a.Label("loop")
	a.Rand(isa.R10)
	a.And(isa.R10, isa.R10, isa.R4)
	a.Br(isa.EQ, isa.R10, isa.R4, fmt.Sprint("c", s.entry))
	emitChain(a, "c", s.offs, "join")
	a.Align(slotBound, 0x800)
	a.Label("join")
	a.AddI(isa.R1, isa.R1, 1)
	a.Br(isa.LT, isa.R1, isa.R2, "loop")
	switch s.tail {
	case tailHalt:
		a.Halt()
	case tailSelf:
		a.Align(slotBound, 2)
		a.Label("self")
		a.Jmp("self")
	case tailCycle:
		emitChain(a, "cy", []uint64{1, 1}, "cy0")
	}
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if s.hole >= 0 {
		i, _ := p.IndexOf(p.MustSymbol(fmt.Sprint("c", s.hole)))
		p.Instrs[i].Target, p.Instrs[i].TargetIdx = holeAddr, -1
	}
	return p
}

// readPHRLoop is the Read_PHR train/test loop in miniature: per iteration a
// coin branch picks a 194-slot Write_PHR-shaped chain or a 194-slot
// Clear_PHR chain, and a test branch on the same coin follows. The write
// chain's offsets are a fixed pseudo-random plan in 0–3.
func readPHRLoop(t testing.TB, iters int64) *isa.Program {
	t.Helper()
	rng := rand.New(rand.NewSource(194))
	clear, write := make([]uint64, 194), make([]uint64, 194)
	for i := range write {
		write[i] = uint64(rng.Intn(4))
	}
	a := isa.NewAssembler()
	a.Label("main")
	a.MovI(isa.R1, 0)
	a.MovI(isa.R2, iters)
	a.MovI(isa.R4, 1)
	a.Label("loop")
	a.Rand(isa.R10)
	a.And(isa.R10, isa.R10, isa.R4)
	a.Br(isa.EQ, isa.R10, isa.R4, "w0")
	emitChain(a, "k", clear, "join")
	emitChain(a, "w", write, "join")
	a.Align(slotBound, 0x800)
	a.Label("join")
	a.Br(isa.EQ, isa.R10, isa.R4, "tested")
	a.Nop()
	a.Label("tested")
	a.AddI(isa.R1, isa.R1, 1)
	a.Br(isa.LT, isa.R1, isa.R2, "loop")
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// chainDiff runs chain programs on a dense and a scalar machine of one
// arch in lockstep. Both machines and the snapshots are reused from program
// to program, so that a sweep of hundreds of programs stays cheap.
type chainDiff struct {
	cfg       bpu.Config
	ms        [2]*Machine // dense, scalar
	pre, post [2]Snapshot
}

func newChainDiff(cfg bpu.Config) *chainDiff {
	d := &chainDiff{cfg: cfg}
	for i := range d.ms {
		d.ms[i] = New(Options{Arch: cfg, scalar: i == 1})
	}
	return d
}

// check recycles both machines to power-on and runs prog from "main" on
// them, failing at the first difference in error string, counters,
// registers, PHR or snapshot hash. Runs come in pairs from one state: the
// first is rewound to that state by a dirty restore, which must give back
// the state's hash, and the second, a repeat, compares the engines' hashes.
// (Hashing the first run's end state would re-sync the machine to it and
// send the rewind down the full-copy path.) The pairs start from power-on
// and, with warm set, from the warm state that leaves. When repatch is
// non-nil, a last pair runs after repatch re-addresses prog in place.
func (d *chainDiff) check(t *testing.T, limit uint64, prog *isa.Program, warm bool, repatch func()) {
	t.Helper()
	for i, m := range d.ms {
		m.Recycle(Options{Arch: d.cfg, Seed: 9, StepLimit: limit, scalar: i == 1})
	}
	pair := func(what string) {
		t.Helper()
		for _, rewind := range []bool{true, false} {
			var errs [2]string
			for i, m := range d.ms {
				if rewind {
					// Restoring the snapshot just taken clears the dirty
					// bits, so the rewind copies only what the run marked,
					// as a harness trial's rewind does.
					m.SnapshotInto(&d.pre[i])
					m.RestoreFrom(&d.pre[i])
				}
				if err := m.Run(prog, "main"); err != nil {
					errs[i] = err.Error()
				}
			}
			if errs[0] != errs[1] {
				t.Fatalf("%s: dense error %q, scalar error %q", what, errs[0], errs[1])
			}
			compareLanes(t, what, 0, d.ms[0], d.ms[1])
			if !rewind {
				for i, m := range d.ms {
					m.SnapshotInto(&d.post[i])
				}
				if dh, sh := d.post[0].Hash(), d.post[1].Hash(); dh != sh {
					t.Fatalf("%s: snapshot hash %#x (dense) != %#x (scalar)", what, dh, sh)
				}
				continue
			}
			for i, m := range d.ms {
				if !m.syncOK || m.syncHash != d.pre[i].Hash() {
					t.Fatalf("%s: restore-sync lost; the dirty path would not fire", what)
				}
				m.RestoreFrom(&d.pre[i])
				m.SnapshotInto(&d.post[i])
				if got, want := d.post[i].Hash(), d.pre[i].Hash(); got != want {
					t.Fatalf("%s: engine %d: dirty restore hash %#x, want %#x", what, i, got, want)
				}
			}
		}
	}
	pair("power-on")
	if warm {
		pair("warm")
	}
	if repatch == nil {
		return
	}
	repatch()
	pair("repatched")
	// The rebuild dropped the old summaries: every summary left is the one
	// of a chain entry in the new decode.
	ps := d.ms[0].progs[prog]
	entries := 0
	for i := range ps.dense {
		if ps.dense[i].chain > 0 {
			entries++
		}
	}
	if entries != len(ps.chains) {
		t.Fatalf("%d chain summaries held for %d chain entries", len(ps.chains), entries)
	}
}

// readdress returns a repatch function that moves prog's instructions to
// the addresses alt assembles them at, then calls Reindex, the way the
// core template patchers re-address attack programs between trials.
func readdress(t *testing.T, prog, alt *isa.Program) func() {
	return func() {
		t.Helper()
		for i := range prog.Instrs {
			prog.Instrs[i].Addr = alt.Instrs[i].Addr
		}
		if err := prog.Reindex(); err != nil {
			t.Fatal(err)
		}
	}
}

func randomOffs(rng *rand.Rand, n, maxOff int) []uint64 {
	offs := make([]uint64, n)
	for i := range offs {
		offs[i] = uint64(rng.Intn(maxOff))
	}
	return offs
}

// TestJumpChainsDenseMatchesScalar is the jump-chain fusion differential
// on all three Table 1 machines: chains of every length from 1 to 300 (some
// longer than both register sizes) entered at their head and in the middle
// through a branch, a re-addressed program, a chain ending at a hole, a
// self-loop and a two-jump cycle run into the step limit (with limits that
// cut chains mid-way), BTB slots written once and many times, and chains
// that touch more BTB slots than a summary holds.
func TestJumpChainsDenseMatchesScalar(t *testing.T) {
	if unsafe.Sizeof(denseInstr{}) != 40 {
		t.Fatalf("denseInstr is %d bytes, want 40", unsafe.Sizeof(denseInstr{}))
	}
	for ai, cfg := range bpu.Configs() {
		t.Run(cfg.Name, func(t *testing.T) {
			d := newChainDiff(cfg)
			rng := rand.New(rand.NewSource(int64(ai)))
			for n := 1; n <= 300; n++ {
				s := chainShape{offs: randomOffs(rng, n, 4), entry: rng.Intn(n), trips: 2, hole: -1}
				t.Run(fmt.Sprint("len", n), func(t *testing.T) {
					d.check(t, 0, s.program(t), false, nil)
				})
			}
			cases := []struct {
				name  string
				shape chainShape
				limit uint64
				alt   []uint64 // offsets to re-address the chain to; nil for none
			}{
				// Every slot of bank 0 the chain writes sees differing writes.
				{"mixed-slots", chainShape{offs: []uint64{0, 1, 2, 3, 0, 1, 2, 3}, trips: 1, hole: -1}, 0, nil},
				// Four jumps, four slots, one write each.
				{"uniform-slots", chainShape{offs: []uint64{3, 1, 0, 2}, entry: 2, trips: 3, hole: -1}, 0, nil},
				{"more-slots-than-summary", chainShape{offs: randomOffs(rng, 120, 16), entry: 60, trips: 3, hole: -1}, 0, nil},
				{"repatched", chainShape{offs: randomOffs(rng, 194, 4), entry: 97, trips: 3, hole: -1}, 0, randomOffs(rng, 194, 4)},
				{"hole-at-end", chainShape{offs: randomOffs(rng, 50, 4), trips: 2, hole: 49}, 0, nil},
				{"hole-mid-chain", chainShape{offs: randomOffs(rng, 50, 4), entry: 30, trips: 4, hole: 20}, 0, nil},
				{"self-loop", chainShape{offs: randomOffs(rng, 10, 4), trips: 2, tail: tailSelf, hole: -1}, 5003, nil},
				{"self-loop-short-limit", chainShape{offs: randomOffs(rng, 10, 4), trips: 2, tail: tailSelf, hole: -1}, 997, nil},
				{"two-jump-cycle", chainShape{offs: randomOffs(rng, 10, 4), trips: 2, tail: tailCycle, hole: -1}, 4099, nil},
				{"limit-mid-chain", chainShape{offs: randomOffs(rng, 300, 4), entry: 150, trips: 4, hole: -1}, 611, nil},
			}
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					p := c.shape.program(t)
					var repatch func()
					if c.alt != nil {
						alt := c.shape
						alt.offs = c.alt
						repatch = readdress(t, p, alt.program(t))
					}
					d.check(t, c.limit, p, true, repatch)
				})
			}
			t.Run("read-phr-loop", func(t *testing.T) {
				d.check(t, 0, readPHRLoop(t, 8), true, nil)
			})
		})
	}
}

// FuzzJumpChainsVsScalar runs the jump-chain differential on programs drawn
// from fuzzer bytes: chain length, slot offsets (up to 16 distinct slots),
// entry slot, loop trips, tail, hole, step limit and a re-addressing. Run
// locally with:
//
//	go test ./internal/cpu -run='^$' -fuzz=FuzzJumpChainsVsScalar -fuzztime=30s
func FuzzJumpChainsVsScalar(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{7, 1, 0, 1, 2, 3, 0, 1, 2, 3}, uint8(1))
	f.Add([]byte{193, 0, 1, 9, 200, 3, 1, 0, 0, 5, 255, 1}, uint8(2))
	f.Add([]byte{44, 1, 17, 5, 3, 2, 1, 1, 1, 7, 3, 0, 9, 1, 2}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, archSel uint8) {
		if len(data) > 1<<10 {
			return
		}
		rd := &fuzzRd{data: data}
		word := func() int { return int(rd.next()) | int(rd.next())<<8 }
		n := 1 + word()%300
		maxOff := 4
		if rd.next()%2 == 1 {
			maxOff = 16
		}
		offs := func() []uint64 {
			o := make([]uint64, n)
			for i := range o {
				o[i] = uint64(rd.next()) % uint64(maxOff)
			}
			return o
		}
		s := chainShape{offs: offs(), entry: int(rd.next()) % n, trips: 1 + int64(rd.next()%4),
			tail: int(rd.next()) % numTails, hole: -1}
		if rd.next()%4 == 0 {
			s.hole = word() % n
		}
		// A tail that never halts needs a limit; a drawn one may cut the loop.
		limit := uint64(s.trips)*uint64(n+8) + 2000
		if rd.next()%2 == 1 {
			limit = 1 + uint64(word())%limit
		} else if s.tail == tailHalt {
			limit = 0
		}
		p := s.program(t)
		var repatch func()
		if rd.next()%2 == 1 {
			alt := s
			alt.offs = offs()
			repatch = readdress(t, p, alt.program(t))
		}
		newChainDiff(bpu.Configs()[int(archSel)%3]).check(t, limit, p, true, repatch)
	})
}
