package cache

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pathfinder/internal/wire"
)

// denseState is the dense saved-cache form State replaced: one copy of
// every line, set-major. It and the dense operations below are kept as the
// reference the sparse form must match.
type denseState struct {
	sets, ways int
	tick       uint64
	hits       uint64
	misses     uint64
	flushes    uint64
	lines      []line // sets*ways, set-major
}

func denseSave(c *Cache, dst *denseState) {
	dst.sets, dst.ways = len(c.sets), c.ways
	dst.tick, dst.hits, dst.misses, dst.flushes = c.tick, c.hits, c.misses, c.flushes
	n := len(c.sets) * c.ways
	if cap(dst.lines) < n {
		dst.lines = make([]line, n)
	}
	dst.lines = dst.lines[:n]
	for i, set := range c.sets {
		copy(dst.lines[i*c.ways:(i+1)*c.ways], set)
	}
}

func denseRestore(c *Cache, s *denseState) {
	c.tick, c.hits, c.misses, c.flushes = s.tick, s.hits, s.misses, s.flushes
	for i, set := range c.sets {
		copy(set, s.lines[i*c.ways:(i+1)*c.ways])
	}
	clear(c.dirty)
}

func denseRestoreDirty(c *Cache, s *denseState) {
	c.tick, c.hits, c.misses, c.flushes = s.tick, s.hits, s.misses, s.flushes
	for wi, w := range c.dirty {
		for w != 0 {
			si := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if si >= len(c.sets) {
				break
			}
			copy(c.sets[si], s.lines[si*c.ways:(si+1)*c.ways])
		}
		c.dirty[wi] = 0
	}
}

// denseFlushAll clears every set and raises every dirty bit, as FlushAll
// did before the occupied-set bitmap.
func denseFlushAll(c *Cache) {
	for i := range c.dirty {
		c.dirty[i] = ^uint64(0)
	}
	for s := range c.sets {
		clear(c.sets[s])
	}
}

func denseReset(c *Cache) {
	denseFlushAll(c)
	c.tick, c.hits, c.misses, c.flushes = 0, 0, 0, 0
}

func (s *denseState) Hash(h uint64) uint64 {
	mix := func(h, w uint64) uint64 { return (h ^ w) * 0x100000001b3 }
	h = mix(h, s.tick)
	for i := range s.lines {
		if s.lines[i].key == 0 {
			continue
		}
		h = mix(h, uint64(i))
		h = mix(h, s.lines[i].key)
		h = mix(h, s.lines[i].lru)
	}
	return h
}

func (s *denseState) EncodeWire(w *wire.Writer) {
	w.U32(uint32(s.sets))
	w.U32(uint32(s.ways))
	w.U64(s.tick)
	w.U64(s.hits)
	w.U64(s.misses)
	w.U64(s.flushes)
	live := 0
	for i := range s.lines {
		if s.lines[i].key != 0 {
			live++
		}
	}
	w.U32(uint32(live))
	for i := range s.lines {
		if s.lines[i].key == 0 {
			continue
		}
		w.U32(uint32(i))
		w.U64(s.lines[i].key)
		w.U64(s.lines[i].lru)
	}
}

// checkSparseVsDense drives two caches of one geometry through the same
// random sequence of steps, one with the sparse State and the occupied-set
// FlushAll and Reset, the other with the dense reference. After every step
// the sets, counters and clock must match, the saved states must hash and
// encode alike, the encoding must decode back to the sparse state, and
// every set holding a valid line must have its occupied bit raised.
func checkSparseVsDense(t *testing.T, rng *rand.Rand, sets, ways, steps int) {
	t.Helper()
	got, ref := New(sets, ways), New(sets, ways)
	const slots = 3
	var sp [slots]State
	var dn [slots]denseState
	var saved [slots]bool
	synced := -1 // the slot both caches were last restored to or saved into
	var scratch, decoded State
	var scratchRef denseState

	addr := func() uint64 {
		// Crowd a few sets past their ways, or touch any line.
		if rng.IntN(2) == 0 {
			return (uint64(rng.IntN(2*ways))*uint64(sets)+uint64(rng.IntN(min(sets, 4))))*LineSize + rng.Uint64N(LineSize)
		}
		return rng.Uint64N(uint64(4*sets*ways) * LineSize)
	}
	for step := 0; step < steps; step++ {
		var what string
		switch op := rng.IntN(20); {
		case op < 8:
			what = "Access"
			a := addr()
			got.Access(a)
			ref.Access(a)
		case op < 10:
			what = "Flush"
			a := addr()
			got.Flush(a)
			ref.Flush(a)
		case op < 11:
			what = "FlushStrided"
			base, stride, n := addr(), (1+rng.Uint64N(uint64(2*sets)))*LineSize, rng.IntN(2*sets*ways+1)
			got.FlushStrided(base, stride, n)
			ref.FlushStrided(base, stride, n)
		case op < 12:
			what = "EvictNth"
			r := rng.Uint64()
			got.EvictNth(r)
			ref.EvictNth(r)
		case op < 13:
			what = "FlushAll"
			got.FlushAll()
			denseFlushAll(ref)
		case op < 14:
			what = "Reset"
			got.Reset()
			denseReset(ref)
		case op < 16:
			what = "Save"
			k := rng.IntN(slots)
			got.Save(&sp[k])
			denseSave(ref, &dn[k])
			saved[k], synced = true, k
		case op < 18:
			what = "Restore"
			k := rng.IntN(slots)
			if !saved[k] {
				continue
			}
			got.Restore(&sp[k])
			denseRestore(ref, &dn[k])
			synced = k
		default:
			what = "RestoreDirty"
			if synced < 0 {
				continue
			}
			got.RestoreDirty(&sp[synced])
			denseRestoreDirty(ref, &dn[synced])
		}

		if !slices.EqualFunc(got.sets, ref.sets, slices.Equal) {
			t.Fatalf("step %d (%s), %dx%d: sets differ from the dense reference", step, what, sets, ways)
		}
		if got.tick != ref.tick || got.hits != ref.hits || got.misses != ref.misses || got.flushes != ref.flushes {
			t.Fatalf("step %d (%s), %dx%d: clock and counters %d/%d/%d/%d, dense reference %d/%d/%d/%d", step, what, sets, ways,
				got.tick, got.hits, got.misses, got.flushes, ref.tick, ref.hits, ref.misses, ref.flushes)
		}
		for si, set := range got.sets {
			occupied := got.occupied[si>>6]&(1<<(si&63)) != 0
			if !occupied && slices.ContainsFunc(set, func(l line) bool { return l.key != 0 }) {
				t.Fatalf("step %d (%s), %dx%d: set %d holds a valid line but its occupied bit is clear", step, what, sets, ways, si)
			}
		}
		got.Save(&scratch)
		denseSave(ref, &scratchRef)
		if h, want := scratch.Hash(17), scratchRef.Hash(17); h != want {
			t.Fatalf("step %d (%s), %dx%d: Hash %#x, dense reference %#x", step, what, sets, ways, h, want)
		}
		w, wantW := wire.NewWriter(0), wire.NewWriter(0)
		scratch.EncodeWire(w)
		scratchRef.EncodeWire(wantW)
		if !bytes.Equal(w.Bytes(), wantW.Bytes()) {
			t.Fatalf("step %d (%s), %dx%d: wire bytes differ from the dense reference's", step, what, sets, ways)
		}
		r := wire.NewReader(w.Bytes())
		decoded.DecodeWire(r)
		if r.Err() != nil || r.Remaining() != 0 || !reflect.DeepEqual(decoded, scratch) {
			t.Fatalf("step %d (%s), %dx%d: wire round trip: err %v, %d bytes left, equal %v", step, what, sets, ways,
				r.Err(), r.Remaining(), reflect.DeepEqual(decoded, scratch))
		}
	}
}

func TestSparseStateMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for c := 0; c < 200; c++ {
		checkSparseVsDense(t, rng, 1<<rng.IntN(8), 1+rng.IntN(6), 200)
	}
	for c := 0; c < 3; c++ {
		checkSparseVsDense(t, rng, DefaultSets, DefaultWays, 300)
	}
}

func FuzzSparseStateVsDense(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(2), uint16(300))
	f.Add(uint64(2), uint8(0), uint8(1), uint16(100))
	f.Add(uint64(3), uint8(12), uint8(16), uint16(200))
	f.Fuzz(func(t *testing.T, seed uint64, setsLog, ways uint8, steps uint16) {
		sets, w := 1<<(setsLog%13), 1+int(ways%16)
		checkSparseVsDense(t, rand.New(rand.NewPCG(seed, 0)), sets, w, int(steps%512))
	})
}

// encodeLines builds a cache-state blob by hand: a header claiming sets ×
// ways and live lines, then the given (index, key) entries.
func encodeLines(sets, ways, live uint32, entries ...[2]uint64) []byte {
	w := wire.NewWriter(0)
	w.U32(sets)
	w.U32(ways)
	for range 4 { // tick and counters
		w.U64(1)
	}
	w.U32(live)
	for _, e := range entries {
		w.U32(uint32(e[0]))
		w.U64(e[1])
		w.U64(7) // lru
	}
	return w.Bytes()
}

// TestDecodeWireBoundedByInput pins that a blob's header cannot make the
// decoder allocate for lines the blob does not hold: a 2^26-line geometry
// with a live count to match, backed by three entries, must fail, or
// decode, within 64 KB of allocation.
func TestDecodeWireBoundedByInput(t *testing.T) {
	blob := encodeLines(1<<13, 1<<13, 1<<26, [2]uint64{1, 2}, [2]uint64{5, 6}, [2]uint64{9, 10})
	var s State
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := wire.NewReader(blob)
	s.DecodeWire(r)
	runtime.ReadMemStats(&after)
	if r.Err() == nil {
		t.Fatal("a blob claiming 2^26 live lines with three on the wire decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("decoding a 2^26-line header allocated %d bytes", n)
	}
}

// TestDecodeWireRejectsMalformedLines pins that lines out of strict index
// order, past the geometry, or under a geometry out of range (including one
// whose sets × ways wraps) fail the decode on the lines themselves.
func TestDecodeWireRejectsMalformedLines(t *testing.T) {
	for name, blob := range map[string][]byte{
		"descending": encodeLines(4, 2, 2, [2]uint64{5, 1}, [2]uint64{3, 1}),
		"repeated":   encodeLines(4, 2, 2, [2]uint64{3, 1}, [2]uint64{3, 2}),
		"past end":   encodeLines(4, 2, 1, [2]uint64{8, 1}),
		"geometry":   encodeLines(1<<31, 1<<31, 0),
		"overflow":   encodeLines(1<<32-1, 1<<32-1, 0), // sets × ways wraps int64
	} {
		var s State
		r := wire.NewReader(blob)
		if s.DecodeWire(r); r.Err() == nil {
			t.Errorf("%s: decoded", name)
		} else if errors.Is(r.Err(), wire.ErrShort) {
			t.Errorf("%s: failed short (%v), not on the lines", name, r.Err())
		}
	}
}

// TestDecodeWireDropsInvalidLines pins that an entry with a zero key, which
// the encoder never writes and the dense form ignored, decodes to nothing.
func TestDecodeWireDropsInvalidLines(t *testing.T) {
	var s, want State
	r := wire.NewReader(encodeLines(4, 2, 3, [2]uint64{1, 5}, [2]uint64{2, 0}, [2]uint64{6, 9}))
	s.DecodeWire(r)
	r = wire.NewReader(encodeLines(4, 2, 2, [2]uint64{1, 5}, [2]uint64{6, 9}))
	want.DecodeWire(r)
	if r.Err() != nil || !reflect.DeepEqual(s, want) {
		t.Fatalf("decoded %+v, want %+v (err %v)", s, want, r.Err())
	}
}
