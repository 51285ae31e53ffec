package pht

import "math/bits"

// Snapshot state for the checkpoint layer (internal/cpu.Machine.Snapshot):
// flat copies of the base and tagged tables with no per-entry allocation.
// Save reuses the destination's backing storage, Restore panics on a
// geometry mismatch, and Hash chains an FNV-1a style fold so a whole
// machine snapshot gets one cheap equality key.

// BaseState is a saved BaseTable: the full counter array.
type BaseState struct {
	ctr []Counter
}

// Save copies the table's counters into dst, reusing dst's storage.
func (b *BaseTable) Save(dst *BaseState) {
	dst.ctr = append(dst.ctr[:0], b.ctr...)
}

// Restore overwrites the table's counters from a saved state. The state
// must come from a table of identical geometry.
func (b *BaseTable) Restore(s *BaseState) {
	if len(s.ctr) != len(b.ctr) {
		panic("pht: restore base state with mismatched geometry")
	}
	copy(b.ctr, s.ctr)
	b.dirty = [len(b.dirty)]uint64{}
}

// RestoreDirty copies only the 64-counter banks whose dirty bit is raised,
// then clears the bits. Correct only when every clean bank already matches
// s (the cpu layer's snapshot-hash sync check guarantees this); then it is
// bit-identical to a full Restore.
func (b *BaseTable) RestoreDirty(s *BaseState) {
	if len(s.ctr) != len(b.ctr) {
		panic("pht: restore base state with mismatched geometry")
	}
	for wi, w := range b.dirty {
		for w != 0 {
			bank := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			lo := bank << baseBankShift
			copy(b.ctr[lo:lo+1<<baseBankShift], s.ctr[lo:lo+1<<baseBankShift])
		}
		b.dirty[wi] = 0
	}
}

// Hash folds the saved counters into h.
func (s *BaseState) Hash(h uint64) uint64 {
	for i := 0; i < len(s.ctr); i += 8 {
		var w uint64
		for j := i; j < i+8 && j < len(s.ctr); j++ {
			w = w<<8 | uint64(s.ctr[j])
		}
		h = mix(h, w)
	}
	return h
}

// TaggedState is a saved TaggedTable: the entry array, copied as one value
// assignment.
type TaggedState struct {
	histLen int
	sets    [Sets][Ways]Entry
}

// Save copies the table's entries into dst.
func (t *TaggedTable) Save(dst *TaggedState) {
	dst.histLen = t.HistLen
	dst.sets = t.sets
}

// Restore overwrites the table's entries from a saved state.
func (t *TaggedTable) Restore(s *TaggedState) {
	if s.histLen != t.HistLen {
		panic("pht: restore tagged state with mismatched history length")
	}
	t.sets = s.sets
	t.dirty = [Sets / 64]uint64{}
}

// RestoreDirty copies only the sets whose dirty bit is raised, then clears
// the bits. Correct only when every clean set already matches s, per the cpu
// layer's snapshot-hash sync check.
func (t *TaggedTable) RestoreDirty(s *TaggedState) {
	if s.histLen != t.HistLen {
		panic("pht: restore tagged state with mismatched history length")
	}
	for wi, w := range t.dirty {
		for w != 0 {
			si := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			t.sets[si] = s.sets[si]
		}
		t.dirty[wi] = 0
	}
}

// Hash folds the saved entries into h. Invalid ways fold as zero so tables
// that differ only in dead tag bits hash identically to their Dump.
func (s *TaggedState) Hash(h uint64) uint64 {
	h = mix(h, uint64(s.histLen))
	for set := range s.sets {
		for w := range s.sets[set] {
			e := &s.sets[set][w]
			if !e.Valid {
				continue
			}
			h = mix(h, uint64(set)<<32|uint64(w))
			h = mix(h, uint64(e.Tag)<<16|uint64(e.Ctr)<<8|uint64(e.Useful))
		}
	}
	return h
}

// mix is one FNV-1a style step over a 64-bit word.
func mix(h, w uint64) uint64 {
	return (h ^ w) * 0x100000001b3
}
