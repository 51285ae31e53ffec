package phr

import (
	"testing"
)

// The tests in this file pin the hot-path implementations — the table-driven
// Footprint and the word-streaming foldFull/FoldMix — against deliberately
// naive references that mirror the pre-optimization per-chunk code, also
// after long Update/ReverseUpdate streams and through Clone/CopyFrom.

// refExtract returns up to 32 bits starting at bit offset o, clipped at
// limit (the old Reg.extract helper).
func refExtract(r *Reg, o, n, limit int) uint32 {
	if o+n > limit {
		n = limit - o
	}
	w := o / 64
	sh := uint(o % 64)
	v := r.w[w] >> sh
	if sh+uint(n) > 64 && w+1 < maxWords {
		v |= r.w[w+1] << (64 - sh)
	}
	return uint32(v) & uint32(1<<uint(n)-1)
}

// refFold is the original per-chunk Fold.
func refFold(r *Reg, histLen, width int) uint32 {
	if histLen > r.size {
		histLen = r.size
	}
	bits := 2 * histLen
	mask := uint32(1)<<width - 1
	var acc uint32
	for o := 0; o < bits; o += width {
		acc ^= refExtract(r, o, width, bits) & mask
	}
	return acc & mask
}

// refFoldMix is the original per-chunk FoldMix.
func refFoldMix(r *Reg, histLen, width int) uint32 {
	if histLen > r.size {
		histLen = r.size
	}
	bits := 2 * histLen
	mask := uint32(1)<<width - 1
	var acc uint32
	for o := 0; o < bits; o += width {
		acc = ((acc<<3 | acc>>(uint(width)-3)) & mask) ^ (refExtract(r, o, width, bits) & mask)
	}
	return acc & mask
}

// table1FoldPairs returns the (size, histLen, width) triples the Table 1
// configurations exercise: the 8-bit tagged-table index folds per history
// length and the 16-bit IBP fold over the full window, for both the
// 194-doublet Alder/Raptor Lake register and the 93-doublet Skylake one.
type foldPair struct{ size, histLen, width int }

func table1FoldPairs() []foldPair {
	var out []foldPair
	for _, size := range []int{194, 93} {
		hists := []int{34, 66, 194}
		if size == 93 {
			hists = []int{24, 46, 93}
		}
		for _, h := range hists {
			out = append(out, foldPair{size, h, 8})
			out = append(out, foldPair{size, h, 12})
		}
		out = append(out, foldPair{size, size, 16})
	}
	return out
}

func TestFootprintTableMatchesSlow(t *testing.T) {
	g := newTestRng(0x5eed)
	for i := 0; i < 200000; i++ {
		b, tgt := g.next(), g.next()
		if got, want := Footprint(b, tgt), footprintSlow(b, tgt); got != want {
			t.Fatalf("Footprint(%#x, %#x) = %#x, want %#x", b, tgt, got, want)
		}
	}
	// Exhaustive over the bits that matter for the branch half.
	for b := uint64(0); b < 1<<16; b += 7 {
		for tg := uint64(0); tg < 64; tg++ {
			if got, want := Footprint(b, tg), footprintSlow(b, tg); got != want {
				t.Fatalf("Footprint(%#x, %#x) = %#x, want %#x", b, tg, got, want)
			}
		}
	}
}

func TestFoldStreamingMatchesRef(t *testing.T) {
	g := newTestRng(42)
	for _, size := range []int{8, 93, 100, 194} {
		r := New(size)
		for step := 0; step < 300; step++ {
			r.Update(uint16(g.next()))
			for h := 1; h <= size; h += 13 {
				for w := 1; w <= 32; w++ {
					if got, want := r.foldFull(h, w), refFold(r, h, w); got != want {
						t.Fatalf("size=%d h=%d w=%d foldFull=%#x ref=%#x", size, h, w, got, want)
					}
					if w > 2 {
						if got, want := r.FoldMix(h, w), refFoldMix(r, h, w); got != want {
							t.Fatalf("size=%d h=%d w=%d FoldMix=%#x ref=%#x", size, h, w, got, want)
						}
					}
				}
			}
		}
	}
}

// TestFoldMix12LaneFold pins the 48-bit lane-grouped tag fold against the
// generic chunk stream for every history length at the tag width.
func TestFoldMix12LaneFold(t *testing.T) {
	g := newTestRng(7)
	for _, size := range []int{8, 93, 100, 194} {
		r := New(size)
		for step := 0; step < 200; step++ {
			r.Update(uint16(g.next()))
			for h := 1; h <= size; h++ {
				if got, want := r.foldMix12(h), r.foldMixFull(h, 12); got != want {
					t.Fatalf("size=%d h=%d foldMix12=%#x foldMixFull=%#x", size, h, got, want)
				}
			}
		}
	}
}

// TestFoldCacheIncremental replays long random branch streams and checks
// Fold against the naive reference after every update, for all Table 1
// (histLen, width) pairs, with ReverseUpdates and occasional structural
// mutations mixed in.
func TestFoldCacheIncremental(t *testing.T) {
	for _, p := range table1FoldPairs() {
		g := newTestRng(uint64(p.size*1000 + p.histLen*10 + p.width))
		r := New(p.size)
		var fps []uint16
		var tops []Doublet
		for step := 0; step < 8000; step++ {
			switch {
			case len(fps) > 0 && g.next()%5 == 0:
				// Undo a real update so the recovered top doublet is exact.
				fp := fps[len(fps)-1]
				top := tops[len(tops)-1]
				fps, tops = fps[:len(fps)-1], tops[:len(tops)-1]
				r.ReverseUpdate(fp, top)
			case g.next()%97 == 0:
				r.SetDoublet(int(g.next()%uint64(p.size)), Doublet(g.next())&3)
				fps, tops = fps[:0], tops[:0] // history no longer invertible
			default:
				fp := uint16(g.next())
				tops = append(tops, r.Doublet(p.size-1))
				fps = append(fps, fp)
				r.Update(fp)
			}
			if got, want := r.Fold(p.histLen, p.width), refFold(r, p.histLen, p.width); got != want {
				t.Fatalf("size=%d histLen=%d width=%d step=%d: fold %#x, ref %#x",
					p.size, p.histLen, p.width, step, got, want)
			}
		}
	}
}

// TestFoldCacheManyWindows reads many (histLen, width) pairs after every
// update, including reverse updates with synthetic (unknown) top doublets
// as the pathfinder search issues them.
func TestFoldCacheManyWindows(t *testing.T) {
	g := newTestRng(7)
	r := New(194)
	pairs := [][2]int{{34, 8}, {66, 8}, {194, 8}, {194, 16}, {50, 12}, {93, 9}}
	for step := 0; step < 3000; step++ {
		if g.next()%3 == 0 {
			r.ReverseUpdate(uint16(g.next()), Doublet(g.next())&3)
		} else {
			r.Update(uint16(g.next()))
		}
		for _, p := range pairs {
			if got, want := r.Fold(p[0], p[1]), refFold(r, p[0], p[1]); got != want {
				t.Fatalf("h=%d w=%d step=%d: fold %#x, ref %#x", p[0], p[1], step, got, want)
			}
		}
	}
}

// TestFoldCacheCloneCopy checks Clone/CopyFrom as plain value copies: clones
// diverge independently and fold correctly.
func TestFoldCacheCloneCopy(t *testing.T) {
	g := newTestRng(99)
	r := New(194)
	for i := 0; i < 50; i++ {
		r.Update(uint16(g.next()))
	}
	c := r.Clone()
	c.Update(uint16(g.next()))
	r.ReverseUpdate(uint16(g.next()), 2)
	if got, want := c.Fold(66, 8), refFold(c, 66, 8); got != want {
		t.Fatalf("clone fold %#x, ref %#x", got, want)
	}
	if got, want := r.Fold(66, 8), refFold(r, 66, 8); got != want {
		t.Fatalf("original fold %#x, ref %#x", got, want)
	}
	d := New(194)
	d.CopyFrom(c)
	d.Update(uint16(g.next()))
	if got, want := d.Fold(66, 8), refFold(d, 66, 8); got != want {
		t.Fatalf("CopyFrom fold %#x, ref %#x", got, want)
	}
}

func TestAppendDoublets(t *testing.T) {
	g := newTestRng(3)
	r := New(93)
	for i := 0; i < 200; i++ {
		r.Update(uint16(g.next()))
	}
	buf := make([]Doublet, 0, 93)
	buf = r.AppendDoublets(buf)
	want := r.Doublets()
	if len(buf) != len(want) {
		t.Fatalf("AppendDoublets len %d, want %d", len(buf), len(want))
	}
	for i := range buf {
		if buf[i] != want[i] {
			t.Fatalf("doublet %d: %d != %d", i, buf[i], want[i])
		}
	}
	// Reuse must not reallocate.
	p0 := &buf[0]
	buf = r.AppendDoublets(buf[:0])
	if &buf[0] != p0 {
		t.Fatal("AppendDoublets reallocated a sufficient buffer")
	}
}

type testRng struct{ s uint64 }

func newTestRng(seed uint64) *testRng { return &testRng{s: seed} }

func (r *testRng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
