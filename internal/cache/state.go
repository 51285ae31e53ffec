package cache

import "slices"

// State is a saved Cache for the checkpoint layer: its valid lines, plus the
// LRU clock and the cumulative counters. The clock is observable state —
// replacement decisions compare lru stamps — so a restored cache must get
// it back to stay cycle-accurate. A §9 trial leaves a few dozen valid lines
// in the default cache's 65,536 ways, so a State costs the lines it holds,
// not the cache's geometry.
type State struct {
	sets, ways int
	tick       uint64
	hits       uint64
	misses     uint64
	flushes    uint64
	entries    []entry // valid lines only, in ascending idx order
}

// entry is one valid line of a saved cache. idx is its set-major position,
// set*ways + way: the order Hash and the wire form visit lines in.
type entry struct {
	idx  uint32
	line line
}

// Save copies the cache's valid lines into dst, reusing dst's storage.
// Only occupied sets can hold valid lines, so only they are visited.
func (c *Cache) Save(dst *State) {
	dst.sets, dst.ways = len(c.sets), c.ways
	dst.tick, dst.hits, dst.misses, dst.flushes = c.tick, c.hits, c.misses, c.flushes
	dst.entries = dst.entries[:0]
	forEachSet(c.occupied, func(si int) {
		for w, l := range c.sets[si] {
			if l.key != 0 {
				dst.entries = append(dst.entries, entry{idx: uint32(si*c.ways + w), line: l})
			}
		}
	})
}

// Restore overwrites the cache from a saved state of identical geometry:
// it empties the occupied sets and places s's lines. Afterwards every set
// matches s, so all dirty bits clear.
func (c *Cache) Restore(s *State) {
	if s.sets != len(c.sets) || s.ways != c.ways {
		panic("cache: restore state with mismatched geometry")
	}
	c.tick, c.hits, c.misses, c.flushes = s.tick, s.hits, s.misses, s.flushes
	forEachSet(c.occupied, func(si int) { clear(c.sets[si]) })
	clear(c.occupied)
	for _, e := range s.entries {
		si := int(e.idx) / c.ways
		c.sets[si][int(e.idx)%c.ways] = e.line
		c.markOccupied(uint64(si))
	}
	clear(c.dirty)
}

// RestoreDirty overwrites only the sets whose dirty bit is raised, plus the
// clock and counters, then clears the bits. It is only correct when every
// clean set already matches s — i.e. the cache was last restored to (or
// snapshotted into) a state with identical bytes, a precondition the cpu
// layer enforces via its snapshot-hash sync check. Result is bit-identical
// to a full Restore at a fraction of the copying.
func (c *Cache) RestoreDirty(s *State) {
	if s.sets != len(c.sets) || s.ways != c.ways {
		panic("cache: restore state with mismatched geometry")
	}
	c.tick, c.hits, c.misses, c.flushes = s.tick, s.hits, s.misses, s.flushes
	rest := s.entries // entries of the dirty sets not yet visited
	forEachSet(c.dirty, func(si int) {
		set := c.sets[si]
		clear(set)
		c.occupied[si>>6] &^= 1 << (si & 63)
		// The set's lines are the run of entries in [si*ways, (si+1)*ways).
		lo, hi := uint32(si*c.ways), uint32((si+1)*c.ways)
		k, _ := slices.BinarySearchFunc(rest, lo, func(e entry, idx uint32) int { return int(e.idx) - int(idx) })
		for rest = rest[k:]; len(rest) > 0 && rest[0].idx < hi; rest = rest[1:] {
			set[rest[0].idx-lo] = rest[0].line
			c.markOccupied(uint64(si))
		}
	})
	clear(c.dirty)
}

// Hash folds the saved cache into h (FNV-1a style, valid lines only).
func (s *State) Hash(h uint64) uint64 {
	mix := func(h, w uint64) uint64 { return (h ^ w) * 0x100000001b3 }
	h = mix(h, s.tick)
	for _, e := range s.entries {
		h = mix(h, uint64(e.idx))
		h = mix(h, e.line.key)
		h = mix(h, e.line.lru)
	}
	return h
}
