package cache

import (
	"fmt"
	"slices"

	"pathfinder/internal/wire"
)

// Wire codec for the saved cache state, used by the cpu.Snapshot binary
// encoding. Only valid lines go on the wire, in ascending index order,
// exactly as State holds them and Hash visits them, so a mostly-cold cache
// costs a few bytes.

// wireEntrySize is the encoded size of one line: u32 index, u64 key, u64 lru.
const wireEntrySize = 4 + 8 + 8

// EncodeWire appends the saved cache to w.
func (s *State) EncodeWire(w *wire.Writer) {
	w.U32(uint32(s.sets))
	w.U32(uint32(s.ways))
	w.U64(s.tick)
	w.U64(s.hits)
	w.U64(s.misses)
	w.U64(s.flushes)
	w.U32(uint32(len(s.entries)))
	for _, e := range s.entries {
		w.U32(e.idx)
		w.U64(e.line.key)
		w.U64(e.line.lru)
	}
}

// DecodeWire reads a saved cache from r, replacing s. It allocates for the
// lines the input can hold, at most one entry per wireEntrySize bytes left
// in r, never for the geometry the header claims. Indices must rise
// strictly, as EncodeWire writes them; an entry with a zero (invalid) key
// is dropped, as Hash would skip it.
func (s *State) DecodeWire(r *wire.Reader) {
	s.sets = int(r.U32())
	s.ways = int(r.U32())
	s.tick = r.U64()
	s.hits = r.U64()
	s.misses = r.U64()
	s.flushes = r.U64()
	s.entries = s.entries[:0]
	if r.Err() != nil {
		return
	}
	if s.sets < 0 || s.ways < 0 || s.sets > 1<<26 || s.ways > 1<<26 || s.sets*s.ways > 1<<26 {
		r.Fail(fmt.Errorf("cache: wire geometry %dx%d out of range", s.sets, s.ways))
		return
	}
	n := s.sets * s.ways
	live := r.Len(n)
	var prev uint32
	s.entries = slices.Grow(s.entries, min(live, r.Remaining()/wireEntrySize))
	for k := 0; k < live; k++ {
		idx := r.U32()
		key := r.U64()
		lru := r.U64()
		if r.Err() != nil {
			return
		}
		if int(idx) >= n {
			r.Fail(fmt.Errorf("cache: wire line %d out of geometry %d", idx, n))
			return
		}
		if k > 0 && idx <= prev {
			r.Fail(fmt.Errorf("cache: wire line %d follows line %d", idx, prev))
			return
		}
		prev = idx
		if key != 0 {
			s.entries = append(s.entries, entry{idx: idx, line: line{key: key, lru: lru}})
		}
	}
}
