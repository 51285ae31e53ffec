package cache

import (
	"math/bits"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// perSlotFlush and perSlotResident are the per-slot loops the strided
// operations replace, kept as their reference.
func perSlotFlush(c *Cache, base, stride uint64, n int) {
	for i := 0; i < n; i++ {
		c.Flush(base + uint64(i)*stride)
	}
}

func perSlotResident(c *Cache, base, stride uint64, n int) []uint64 {
	hits := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if c.Contains(base + uint64(i)*stride) {
			hits[i>>6] |= 1 << (i & 63)
		}
	}
	return hits
}

// stridedFills returns accesses that crowd the sets of a strided array:
// bytes of its slots, of slot -1 and slot n just outside it, of lines
// between slots, and of unrelated lines, in random order.
func stridedFills(rng *rand.Rand, sets, ways int, base, lines uint64, n int) []uint64 {
	stride := lines * LineSize
	fills := make([]uint64, 2*sets*ways)
	for i := range fills {
		slot := uint64(rng.IntN(n+2)) - 1 // -1 .. n
		if slot == ^uint64(0) && base < stride {
			slot = 0
		}
		a := base + slot*stride
		switch rng.IntN(4) {
		case 0: // between slots
			a += uint64(rng.Uint64N(lines)) * LineSize
		case 1: // anywhere near the array
			a = rng.Uint64N(base + uint64(n+2)*stride + 1)
		}
		fills[i] = a + rng.Uint64N(LineSize)
	}
	return fills
}

// checkStrided requires FlushStrided and ResidentStrided to leave exactly
// what n Flush calls and n Contains calls leave: the saved lines, clock and
// counters, the dirty bitmap, and the resident bits.
func checkStrided(t *testing.T, sets, ways int, base, lines uint64, n int, fills []uint64) {
	t.Helper()
	stride := lines * LineSize
	ref, got := New(sets, ways), New(sets, ways)
	for _, a := range fills {
		ref.Access(a)
	}
	// Start both clean so that the dirty bits compared are the flush's own.
	var st, refSt, gotSt State
	ref.Save(&st)
	ref.Restore(&st)
	got.Restore(&st)
	same := func(what string) {
		t.Helper()
		ref.Save(&refSt)
		got.Save(&gotSt)
		if !reflect.DeepEqual(refSt, gotSt) {
			t.Fatalf("%s: saved state differs from the per-slot loop's (sets=%d ways=%d base=%#x lines=%d n=%d)",
				what, sets, ways, base, lines, n)
		}
		if !slices.Equal(ref.dirty, got.dirty) {
			t.Fatalf("%s: dirty bits %x, per-slot loop %x (sets=%d ways=%d base=%#x lines=%d n=%d)",
				what, got.dirty, ref.dirty, sets, ways, base, lines, n)
		}
	}
	resident := func(what string) {
		t.Helper()
		want := perSlotResident(ref, base, stride, n)
		hits := make([]uint64, len(want)+1)
		hits[len(want)] = 0x5a5a // a guard word past (n+63)/64
		for i := range want {
			hits[i] = ^uint64(0) // stale bits the scan must clear
		}
		got.ResidentStrided(base, stride, n, hits)
		if !slices.Equal(hits[:len(want)], want) || hits[len(want)] != 0x5a5a {
			t.Fatalf("%s: resident %x, per-slot loop %x (sets=%d ways=%d base=%#x lines=%d n=%d)",
				what, hits, want, sets, ways, base, lines, n)
		}
		same(what + " resident scan")
	}
	resident("before flush")
	perSlotFlush(ref, base, stride, n)
	got.FlushStrided(base, stride, n)
	same("flush")
	resident("after flush")
}

// period is the reference slot period: the smallest P > 0 with slots i and
// i+P in one set, found by walking.
func period(sets int, lines uint64) int {
	for p := 1; ; p++ {
		if (uint64(p)*lines)%uint64(sets) == 0 {
			return p
		}
	}
}

func TestStridedMatchesPerSlot(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for c := 0; c < 3000; c++ {
		sets := 1 << rng.IntN(8) // 1 .. 128
		ways := 1 + rng.IntN(6)
		var lines uint64
		switch rng.IntN(4) {
		case 0: // a multiple of the set count: every slot in one set
			lines = uint64(sets) << rng.IntN(4) * uint64(1+rng.IntN(3))
		default:
			lines = 1 + rng.Uint64N(300)
		}
		p := period(sets, lines)
		var n int
		switch rng.IntN(4) {
		case 0:
			n = rng.IntN(p + 1) // below or at the period
		case 1:
			n = p
		case 2:
			n = p + 1 + rng.IntN(2*p) // beyond it
		default:
			n = rng.IntN(600)
		}
		base := rng.Uint64N(1 << 24) // unaligned
		checkStrided(t, sets, ways, base, lines, n, stridedFills(rng, sets, ways, base, lines, n))
	}
}

func FuzzStridedVsPerSlot(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(4), uint64(0x1000_0000), uint16(64), uint16(300))
	f.Add(uint64(2), uint8(2), uint8(1), uint64(0x1234), uint16(8), uint16(9))
	f.Add(uint64(3), uint8(0), uint8(3), uint64(63), uint16(1), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, setsLog, ways uint8, base uint64, lines, n uint16) {
		sets := 1 << (setsLog % 8)
		w := 1 + int(ways%6)
		base %= 1 << 40
		l := 1 + uint64(lines%1024)
		slots := int(n % 700)
		rng := rand.New(rand.NewPCG(seed, 0))
		checkStrided(t, sets, w, base, l, slots, stridedFills(rng, sets, w, base, l, slots))
	})
}

func TestStridedRejectsBadLayout(t *testing.T) {
	for _, tc := range []struct {
		stride uint64
		n      int
	}{{0, 4}, {LineSize / 2, 4}, {LineSize + 1, 4}, {LineSize, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("stride %d n %d: FlushStrided did not panic", tc.stride, tc.n)
				}
			}()
			New(4, 2).FlushStrided(0, tc.stride, tc.n)
		}()
	}
}

// BenchmarkProbeRound times one §9 probe round on the default cache with
// the strided operations: the gadget touches one slot per position of the
// 16 × 256 array at a 4 KiB stride, and the receiver reads the array back
// and flushes it. Every probe set starts full of lines outside the array,
// so the scan visits full sets.
func BenchmarkProbeRound(b *testing.B) {
	const base, slots = 0x1000_0000, 16 * 256
	c := NewDefault()
	for i := uint64(0); i < DefaultWays*64; i++ {
		c.Access(base + (slots+i)*ProbeStride)
	}
	var hits [slots / 64]uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pos := 0; pos < 16; pos++ {
			c.Access(base + uint64(pos*256+(i*7+pos*17)%256)*ProbeStride)
		}
		c.ResidentStrided(base, ProbeStride, slots, hits[:])
		c.FlushStrided(base, ProbeStride, slots)
		if i == 0 {
			got := 0
			for _, w := range hits {
				got += bits.OnesCount64(w)
			}
			if got != 16 {
				b.Fatalf("probe round read %d hits, want 16", got)
			}
		}
	}
}
