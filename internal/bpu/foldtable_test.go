package bpu

import (
	"math/rand"
	"testing"
	"unsafe"

	"pathfinder/internal/phr"
)

// TestFoldTableExact drives one CBP's fold table through the inputs that
// could make a content-keyed cache serve the wrong folds, and checks at
// every probe that the index and tag each tagged table would use equal
// pht's Index and Tag computed straight from the register. Each probe is
// followed by a Predict and an Update on the same register, so the one-entry
// memo is exercised between probes too.
func TestFoldTableExact(t *testing.T) {
	c := NewCBP(AlderLake)
	rng := rand.New(rand.NewSource(1))
	probe := func(t *testing.T, r *phr.Reg) {
		t.Helper()
		pc := uint64(rng.Intn(1<<16)) &^ 3
		f := c.foldsOf(r)
		for i, tt := range c.Tables {
			idx, tag := f[i].Locate(pc)
			if want := tt.Index(pc, r); idx != want {
				t.Fatalf("table %d (hist %d), pc %#x, %s: index %#x, want %#x", i, tt.HistLen, pc, r, idx, want)
			}
			if want := tt.Tag(pc, r); tag != want {
				t.Fatalf("table %d (hist %d), pc %#x, %s: tag %#x, want %#x", i, tt.HistLen, pc, r, tag, want)
			}
		}
		taken := rng.Intn(2) == 0
		c.Update(pc, r, taken, c.Predict(pc, r))
	}
	random := func(size int) *phr.Reg {
		r := phr.New(size)
		for i := 0; i < size; i++ {
			r.SetDoublet(i, phr.Doublet(rng.Intn(4)))
		}
		return r
	}

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"more contents than entries", func(t *testing.T) {
			// A cycle four times the table's capacity, visited three times,
			// so every entry is evicted and refilled.
			regs := make([]*phr.Reg, 4*foldSets*foldWays)
			for i := range regs {
				regs[i] = random(AlderLake.PHRSize)
			}
			for pass := 0; pass < 3; pass++ {
				for _, r := range regs {
					probe(t, r)
				}
			}
		}},
		{"contents that differ in one word only", func(t *testing.T) {
			// Variants of one base content that differ only in word k.
			// Words 5 and 6 (doublets 160-193 of a 194-doublet register)
			// are seen by the 194-doublet table alone. Variants that share a
			// set must not alias, which needs every word in the key
			// comparison. The registers fill all seven words (224 doublets),
			// so word 6 varies in all its bits and, like every other word,
			// puts some variants in the same set; a 194-doublet register
			// has four bits there, and the set hash separates their values.
			const size = 224
			var shared [7]int
			for base := 0; base < 8; base++ {
				b := random(size)
				for k := range shared {
					seen := map[uint8][7]uint64{}
					for v := 0; v < 16; v++ {
						r := b.Clone()
						for d := 32 * k; d < 32*k+32; d++ {
							r.SetDoublet(d, phr.Doublet(rng.Intn(4)))
						}
						w := r.Words()
						s := foldSet(&w)
						if prev, ok := seen[s]; ok && prev != w {
							shared[k]++
						}
						seen[s] = w
						probe(t, r)
					}
				}
			}
			for k, n := range shared {
				if n == 0 {
					t.Fatalf("no two variants of word %d shared a set; the case checks nothing", k)
				}
			}
		}},
		{"skylake registers", func(t *testing.T) {
			// 93-doublet registers, alone and beside 194-doublet registers
			// with the same words: the longest table folds 93 doublets of
			// the one and 194 of the other, so the size belongs to the key.
			for i := 0; i < 300; i++ {
				sky := random(Skylake.PHRSize)
				wide := phr.New(AlderLake.PHRSize)
				wide.SetDoublets(sky.Doublets())
				probe(t, sky)
				probe(t, wide)
				probe(t, sky)
			}
		}},
		{"two harts at equal generations", func(t *testing.T) {
			// Two registers mutated in lockstep keep equal Gen values while
			// their contents differ; alternating between them must not let
			// one serve the other's memo.
			a, b := phr.New(AlderLake.PHRSize), phr.New(AlderLake.PHRSize)
			for i := 0; i < 2000; i++ {
				a.Update(uint16(rng.Uint32()))
				b.Update(uint16(rng.Uint32()))
				if a.Gen() != b.Gen() {
					t.Fatalf("generations drifted: %d != %d", a.Gen(), b.Gen())
				}
				probe(t, a)
				probe(t, b)
				probe(t, a)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestFoldTableSize pins the fold table below its 32 KB budget per CBP.
func TestFoldTableSize(t *testing.T) {
	var c CBP
	if n := unsafe.Sizeof(c.folds) + unsafe.Sizeof(c.next); n > 32<<10 {
		t.Fatalf("fold table is %d bytes, budget 32 KB", n)
	}
}
