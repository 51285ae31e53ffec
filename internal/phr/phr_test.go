package phr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFootprintZero(t *testing.T) {
	// Branch with low 16 address bits zero and target low 6 bits zero has a
	// zero footprint (this is the basis of the Shift_PHR macro).
	cases := []struct{ b, tgt uint64 }{
		{0x0000, 0x0000},
		{0x7fff0000, 0x12340000 + 0x40}, // only high bits set
		{0xdead0000, 0xbeef0000 + 0xc0},
		{0x10000, 0x40},
	}
	for _, c := range cases {
		if f := Footprint(c.b, c.tgt); f != 0 {
			t.Errorf("Footprint(%#x, %#x) = %#x, want 0", c.b, c.tgt, f)
		}
	}
}

func TestFootprintDoublet0ControlledByT0T1(t *testing.T) {
	// With branch address low bits zero, T0 and T1 set exactly doublet 0:
	// bit1 = B3^T0 = T0, bit0 = B4^T1 = T1.
	for t0 := uint64(0); t0 < 2; t0++ {
		for t1 := uint64(0); t1 < 2; t1++ {
			tgt := t0 | t1<<1
			f := Footprint(0, tgt)
			wantD0 := uint16(t0<<1 | t1)
			if f&3 != wantD0 {
				t.Errorf("T0=%d T1=%d: doublet0 = %d, want %d", t0, t1, f&3, wantD0)
			}
			if f>>2 != 0 {
				t.Errorf("T0=%d T1=%d: footprint %#x has bits outside doublet 0", t0, t1, f)
			}
		}
	}
}

func TestFootprintBitPositions(t *testing.T) {
	// Each branch-address bit lands exactly where Figure 2 says.
	wantPos := map[uint]uint{ // branch bit -> footprint bit
		12: 15, 13: 14, 5: 13, 6: 12, 7: 11, 8: 10, 9: 9, 10: 8,
		0: 7, 1: 6, 2: 5, 11: 4, 14: 3, 15: 2, 3: 1, 4: 0,
	}
	for bbit, fbit := range wantPos {
		f := Footprint(1<<bbit, 0)
		if f != 1<<fbit {
			t.Errorf("branch bit %d: footprint %#x, want bit %d set", bbit, f, fbit)
		}
	}
	wantTgt := map[uint]uint{2: 7, 3: 6, 4: 5, 5: 4, 0: 1, 1: 0}
	for tbit, fbit := range wantTgt {
		f := Footprint(0, 1<<tbit)
		if f != 1<<fbit {
			t.Errorf("target bit %d: footprint %#x, want bit %d set", tbit, f, fbit)
		}
	}
}

func TestFootprintHighBitsIgnored(t *testing.T) {
	if err := quick.Check(func(b, tgt uint64) bool {
		return Footprint(b, tgt) == Footprint(b&0xffff, tgt&0x3f)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestUpdateMatchesBitFormula(t *testing.T) {
	// For a PHR small enough to pack into a uint64, doublet-wise Update must
	// equal the paper's bit formula PHR' = (PHR<<2) ^ footprint.
	const size = 16 // 32 bits
	pack := func(r *Reg) uint64 {
		var v uint64
		for i := 0; i < size; i++ {
			v |= uint64(r.Doublet(i)) << (2 * i)
		}
		return v
	}
	rng := rand.New(rand.NewSource(1))
	r := New(size)
	var ref uint64
	for n := 0; n < 10_000; n++ {
		fp := uint16(rng.Uint32())
		r.Update(fp)
		ref = (ref<<2 ^ uint64(fp)) & (1<<(2*size) - 1)
		if pack(r) != ref {
			t.Fatalf("step %d: packed %#x != ref %#x", n, pack(r), ref)
		}
	}
}

func TestShiftAndClear(t *testing.T) {
	r := New(194)
	r.SetDoublet(0, 3)
	r.SetDoublet(1, 1)
	r.Shift(2)
	if r.Doublet(2) != 3 || r.Doublet(3) != 1 || r.Doublet(0) != 0 || r.Doublet(1) != 0 {
		t.Fatalf("shift misplaced doublets: %v", r.Doublets()[:5])
	}
	r.Shift(191)
	if r.Doublet(193) != 3 || !func() bool { // everything else zero
		for i := 0; i < 193; i++ {
			if r.Doublet(i) != 0 {
				return false
			}
		}
		return true
	}() {
		t.Fatalf("shift to top failed: top=%d", r.Doublet(193))
	}
	r.Shift(1)
	if !r.IsZero() {
		t.Fatal("shifting past size must clear")
	}
	r.SetDoublet(5, 2)
	r.Shift(194)
	if !r.IsZero() {
		t.Fatal("Shift(size) must clear (Clear_PHR == Shift_PHR[194])")
	}
}

func TestReverseUpdateInvertsUpdate(t *testing.T) {
	if err := quick.Check(func(seed int64, fp uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New(64)
		for i := 0; i < r.Size(); i++ {
			r.SetDoublet(i, Doublet(rng.Intn(4)))
		}
		before := r.Clone()
		top := before.Doublet(before.Size() - 1)
		r.Update(fp)
		r.ReverseUpdate(fp, top)
		return r.Equal(before)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSetDoubletsRoundTrip(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := make([]Doublet, 194)
		for i := range ds {
			ds[i] = Doublet(rng.Intn(4))
		}
		r := New(194)
		r.SetDoublets(ds)
		got := r.Doublets()
		for i := range ds {
			if got[i] != ds[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFoldDistinguishesHistories(t *testing.T) {
	// Folding must map equal registers equally and, overwhelmingly, unequal
	// low histories to unequal folds for at least one (histLen,width) probe.
	r1 := New(194)
	r2 := New(194)
	r1.SetDoublet(0, 1)
	if r1.Fold(34, 8) == r2.Fold(34, 8) {
		t.Error("fold ignored doublet 0")
	}
	r2.SetDoublet(0, 1)
	if r1.Fold(34, 8) != r2.Fold(34, 8) {
		t.Error("fold not deterministic")
	}
	// Doublets beyond histLen must not affect the fold.
	r2.SetDoublet(40, 3)
	if r1.Fold(34, 8) != r2.Fold(34, 8) {
		t.Error("fold leaked doublets beyond histLen")
	}
	if r1.Fold(66, 8) == r2.Fold(66, 8) {
		t.Error("longer fold must see doublet 40")
	}
}

func TestFoldWidth(t *testing.T) {
	r := New(194)
	for i := 0; i < 194; i++ {
		r.SetDoublet(i, 3)
	}
	for _, w := range []int{1, 5, 8, 9, 13, 16, 32} {
		if v := r.Fold(194, w); uint64(v) >= uint64(1)<<w {
			t.Errorf("Fold width %d overflowed: %#x", w, v)
		}
	}
}

func TestCopyFromAndEqual(t *testing.T) {
	a := New(93)
	b := New(93)
	a.SetDoublet(17, 2)
	b.CopyFrom(a)
	if !a.Equal(b) {
		t.Fatal("CopyFrom failed")
	}
	b.SetDoublet(17, 1)
	if a.Equal(b) {
		t.Fatal("Equal false negative")
	}
	c := New(194)
	if a.Equal(c) {
		t.Fatal("Equal must compare sizes")
	}
}

// TestCopyFromSizeMismatchPanics pins the documented contract: copying
// history between registers of different PHR depths — Raptor/Alder Lake's
// 194 doublets vs Skylake's 93, in either direction — must panic rather
// than silently truncate or zero-extend.
func TestCopyFromSizeMismatchPanics(t *testing.T) {
	mustPanic := func(name string, dst, src *Reg) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: CopyFrom(%d <- %d) did not panic", name, dst.Size(), src.Size())
			}
		}()
		dst.CopyFrom(src)
	}
	raptor, skylake := New(194), New(93)
	for i := 0; i < 93; i++ {
		skylake.SetDoublet(i, Doublet(i)&3)
	}
	mustPanic("widen", raptor, skylake)
	mustPanic("truncate", skylake, raptor)
	// Same size still works, and leaves gen moving.
	other := New(93)
	g := other.Gen()
	other.CopyFrom(skylake)
	if !other.Equal(skylake) || other.Gen() == g {
		t.Fatal("same-size CopyFrom broken")
	}
}

func TestUpdateShiftsOutOldHistory(t *testing.T) {
	r := New(93) // Skylake-sized
	r.SetDoublet(92, 3)
	r.Update(0)
	if r.Doublet(92) != 0 {
		t.Fatal("top doublet must be shifted out")
	}
}

func TestStringCompact(t *testing.T) {
	r := New(194)
	if s := r.String(); s != "PHR[0*194]" {
		t.Fatalf("zero PHR string: %q", s)
	}
	r.SetDoublet(0, 3)
	if s := r.String(); s != "PHR[0*193 3]" {
		t.Fatalf("PHR string: %q", s)
	}
}

func BenchmarkUpdate(b *testing.B) {
	r := New(194)
	for i := 0; i < b.N; i++ {
		r.Update(uint16(i))
	}
}

func BenchmarkFold(b *testing.B) {
	r := New(194)
	for i := 0; i < 194; i++ {
		r.SetDoublet(i, Doublet(i)&3)
	}
	for i := 0; i < b.N; i++ {
		_ = r.Fold(194, 9)
	}
}

// TestUpdateRunMatchesUpdates pins the fused update against its definition:
// for n from 0 to twice the register size, on both modeled register sizes,
// applying a Run of n footprints must leave the register exactly as n
// Update calls do, with every bit at and above 2*size clear.
func TestUpdateRunMatchesUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, size := range []int{194, 93} {
		for n := 0; n <= 2*size; n++ {
			seq := New(size)
			for i := 0; i < size; i++ {
				seq.SetDoublet(i, Doublet(rng.Intn(4)))
			}
			fused := seq.Clone()
			var run Run
			for i := 0; i < n; i++ {
				fp := uint16(rng.Uint32())
				seq.Update(fp)
				run.Add(fp)
			}
			if run.Len() != n {
				t.Fatalf("size %d: Run.Len() = %d after %d Adds", size, run.Len(), n)
			}
			gen := fused.Gen()
			fused.UpdateRun(&run)
			if !fused.Equal(seq) {
				t.Fatalf("size %d, n %d: fused %v, sequential %v", size, n, fused, seq)
			}
			if fused.Gen() == gen {
				t.Fatalf("size %d, n %d: UpdateRun left Gen unchanged", size, n)
			}
		}
	}
}
