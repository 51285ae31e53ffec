// Package pht implements the pattern history tables (PHTs) of the Intel
// conditional branch predictor as reconstructed by Half&Half and Pathfinder
// (Figure 3 of the paper): a base predictor indexed by the low 13 bits of
// the branch PC, and three 512-set × 4-way tagged tables indexed by a 9-bit
// function of folded path history (PHR) and PC bit 5, with tags formed from
// a longer fold of the PHR combined with the PC.
//
// Every entry carries a 3-bit saturating counter (Observation 2 of the
// paper) predicting taken when the counter is in the upper half.
//
// Only *conditional* branches read and update the PHTs; unconditional
// branches update the PHR but never touch these tables. That asymmetry is
// load-bearing for the attacks (e.g. Shift_PHR/Write_PHR macros built from
// unconditional branches leave the PHTs untouched, and 194+ consecutive
// unconditional branches defeat Extended Read PHR).
package pht

import (
	"fmt"
	"strings"

	"pathfinder/internal/phr"
)

// CounterBits is the saturating-counter width (Observation 2).
const CounterBits = 3

// CounterMax is the largest counter value.
const CounterMax = 1<<CounterBits - 1

// Counter is an n-bit saturating counter. Values 0..CounterMax; values in
// the upper half predict taken.
type Counter uint8

// Taken reports the counter's prediction.
func (c Counter) Taken() bool { return c >= 1<<(CounterBits-1) }

// Update returns the counter after observing one branch outcome.
func (c Counter) Update(taken bool) Counter {
	if taken {
		if c < CounterMax {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

// WeakFor returns the weakest counter state that still predicts the given
// direction; new tagged entries are initialised to it.
func WeakFor(taken bool) Counter {
	if taken {
		return 1 << (CounterBits - 1)
	}
	return 1<<(CounterBits-1) - 1
}

// BaseIndexBits is the PC width indexing the base predictor (PC[12:0]).
const BaseIndexBits = 13

// baseBankShift groups base counters into 64-entry banks for dirty
// tracking: 8192 counters → 128 banks → two bitmap words. A trial trains a
// handful of PCs, so a dirty-aware restore copies a few 64-byte banks
// instead of the whole array.
const baseBankShift = 6

// BaseTable is the PC-indexed base (local) predictor, Table 0 in Figure 3.
type BaseTable struct {
	ctr []Counter

	// dirty has one bit per 64-counter bank, raised by Update/Reset and
	// consumed (and cleared) by RestoreDirty. Conservative superset of banks
	// differing from the last restored state.
	dirty [(1 << BaseIndexBits) >> baseBankShift / 64]uint64
}

// NewBase returns a base predictor with all counters at the weak not-taken
// boundary value.
func NewBase() *BaseTable {
	b := &BaseTable{ctr: make([]Counter, 1<<BaseIndexBits)}
	for i := range b.ctr {
		b.ctr[i] = WeakFor(false)
	}
	return b
}

// Index maps a branch PC to its base-table slot.
func (b *BaseTable) Index(pc uint64) uint32 {
	return uint32(pc) & (1<<BaseIndexBits - 1)
}

// Predict returns the base prediction for pc.
func (b *BaseTable) Predict(pc uint64) bool { return b.ctr[b.Index(pc)].Taken() }

// Counter returns the raw counter for pc, for tests and Read PHT probes.
func (b *BaseTable) Counter(pc uint64) Counter { return b.ctr[b.Index(pc)] }

// Update trains the base counter for pc with one outcome.
func (b *BaseTable) Update(pc uint64, taken bool) {
	i := b.Index(pc)
	bank := i >> baseBankShift
	b.dirty[bank>>6] |= 1 << (bank & 63)
	b.ctr[i] = b.ctr[i].Update(taken)
}

// Reset returns every counter to the weak not-taken state (used by the
// mitigation experiments; on hardware this costs ~100k branches, §10.2).
func (b *BaseTable) Reset() {
	for i := range b.dirty {
		b.dirty[i] = ^uint64(0)
	}
	for i := range b.ctr {
		b.ctr[i] = WeakFor(false)
	}
}

// Dump renders every counter that has moved off the reset value, one per
// line, for differential-divergence reports. The reset state dumps empty.
func (b *BaseTable) Dump() string {
	var sb strings.Builder
	for i, c := range b.ctr {
		if c != WeakFor(false) {
			fmt.Fprintf(&sb, "  base[%#x] ctr=%d\n", i, c)
		}
	}
	return sb.String()
}

// Tagged-table geometry from Figure 3.
const (
	Sets      = 512
	Ways      = 4
	IndexBits = 9  // 8 folded-history bits + PC[5]
	TagBits   = 12 // fold of PHR mixed with PC low bits
	UsefulMax = 3  // 2-bit usefulness counter for replacement
)

// Entry is one way of a tagged table.
type Entry struct {
	Valid  bool
	Tag    uint32
	Ctr    Counter
	Useful uint8
}

// TaggedTable is one of the history-indexed components (Tables 1-3 in
// Figure 3). HistLen is the number of PHR doublets folded into its index
// and tag: 34, 66 and 194 on Alder/Raptor Lake.
type TaggedTable struct {
	HistLen int
	sets    [Sets][Ways]Entry

	// dirty has one bit per set. A set is marked when an entry pointer
	// escapes via lookupAt (the bpu layer mutates Ctr/Useful through it),
	// when allocateAt touches it (a failed allocation still decrements
	// usefulness), and on the bulk mutators. RestoreDirty copies only the
	// marked sets.
	dirty [Sets / 64]uint64
}

// NewTagged returns an empty tagged table over histLen doublets of history.
func NewTagged(histLen int) *TaggedTable {
	if histLen <= 0 {
		panic(fmt.Sprintf("pht: non-positive history length %d", histLen))
	}
	return &TaggedTable{HistLen: histLen}
}

// Folds is the part of a table's index and tag that depends only on the path
// history: Fold(HistLen, 8) and FoldMix(HistLen, TagBits), before any PC bit
// is mixed in. It is a pure function of register content, which is what
// lets the CBP cache it by content (internal/bpu).
type Folds struct {
	Index uint8
	Tag   uint16
}

// Folds folds h for this table.
func (t *TaggedTable) Folds(h phr.History) Folds {
	return Folds{Index: uint8(h.Fold(t.HistLen, 8)), Tag: uint16(h.FoldMix(t.HistLen, TagBits))}
}

// Locate mixes the branch PC into f, giving the set index and the tag. It is
// the one place the PC enters tagged-table addressing: PC bit 5 becomes
// index bit 8 (Figure 3), and PC bits 15:0 fold into the tag. Only those
// sixteen bits ever participate, which is what lets an attacker branch at a
// different page alias a victim branch with equal low address bits.
func (f Folds) Locate(pc uint64) (index, tag uint32) {
	p := uint32(pc) & 0xffff
	return uint32(f.Index) | (uint32(pc>>5)&1)<<8, (uint32(f.Tag) ^ p ^ p>>7) & (1<<TagBits - 1)
}

// Index computes the 9-bit set index: eight bits of folded history plus
// PC bit 5.
func (t *TaggedTable) Index(pc uint64, h phr.History) uint32 {
	idx, _ := Folds{Index: uint8(h.Fold(t.HistLen, 8))}.Locate(pc)
	return idx
}

// Tag computes the entry tag from a longer history fold mixed with the low
// PC bits.
func (t *TaggedTable) Tag(pc uint64, h phr.History) uint32 {
	_, tag := Folds{Tag: uint16(h.FoldMix(t.HistLen, TagBits))}.Locate(pc)
	return tag
}

// Lookup finds the entry matching (pc, h). It returns the entry pointer and
// true on a tag hit.
func (t *TaggedTable) Lookup(pc uint64, h phr.History) (*Entry, bool) {
	return t.LookupFolds(pc, t.Folds(h))
}

// LookupFolds is Lookup for a history already folded for this table.
func (t *TaggedTable) LookupFolds(pc uint64, f Folds) (*Entry, bool) {
	return t.lookupAt(f.Locate(pc))
}

func (t *TaggedTable) lookupAt(idx, tag uint32) (*Entry, bool) {
	si := idx & (Sets - 1)
	set := &t.sets[si]
	for w := range set {
		if set[w].Valid && set[w].Tag == tag {
			// The returned pointer escapes to the bpu layer, which trains
			// Ctr/Useful through it; a hit must therefore be assumed a write.
			t.dirty[si>>6] |= 1 << (si & 63)
			return &set[w], true
		}
	}
	return nil, false
}

// Allocate inserts a fresh weak entry for (pc, h) in the given direction.
// It prefers an invalid way, then a way with Useful==0 (lowest index wins,
// keeping the model deterministic). If every way is useful it decrements
// all usefulness counters and allocates nothing, per TAGE replacement.
// It reports whether an entry was inserted.
func (t *TaggedTable) Allocate(pc uint64, h phr.History, taken bool) bool {
	return t.AllocateFolds(pc, t.Folds(h), taken)
}

// AllocateFolds is Allocate for a history already folded for this table.
func (t *TaggedTable) AllocateFolds(pc uint64, f Folds, taken bool) bool {
	idx, tag := f.Locate(pc)
	return t.allocateAt(idx, tag, taken)
}

func (t *TaggedTable) allocateAt(idx, tag uint32, taken bool) bool {
	si := idx & (Sets - 1)
	t.dirty[si>>6] |= 1 << (si & 63) // a failed allocate still decays Useful
	set := &t.sets[si]
	victim := -1
	for w := range set {
		if !set[w].Valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		for w := range set {
			if set[w].Useful == 0 {
				victim = w
				break
			}
		}
	}
	if victim < 0 {
		for w := range set {
			if set[w].Useful > 0 {
				set[w].Useful--
			}
		}
		return false
	}
	set[victim] = Entry{Valid: true, Tag: tag, Ctr: WeakFor(taken)}
	return true
}

// DecayUseful halves every usefulness counter — the periodic TAGE aging
// that keeps long-lived entries evictable.
func (t *TaggedTable) DecayUseful() {
	for i := range t.dirty {
		t.dirty[i] = ^uint64(0)
	}
	for s := range t.sets {
		for w := range t.sets[s] {
			t.sets[s][w].Useful >>= 1
		}
	}
}

// Reset invalidates every entry (PHT flush mitigation, §10.2).
func (t *TaggedTable) Reset() {
	for i := range t.dirty {
		t.dirty[i] = ^uint64(0)
	}
	for s := range t.sets {
		for w := range t.sets[s] {
			t.sets[s][w] = Entry{}
		}
	}
}

// Dump renders every valid entry as "set/way tag ctr useful", one per line,
// in set order, for differential-divergence reports.
func (t *TaggedTable) Dump() string {
	var sb strings.Builder
	for s := range t.sets {
		for w := range t.sets[s] {
			e := t.sets[s][w]
			if e.Valid {
				fmt.Fprintf(&sb, "  set %3d way %d tag=%#03x ctr=%d useful=%d\n", s, w, e.Tag, e.Ctr, e.Useful)
			}
		}
	}
	return sb.String()
}

// Occupancy returns the number of valid entries, for diagnostics and the
// mitigation-cost experiments.
func (t *TaggedTable) Occupancy() int {
	n := 0
	for s := range t.sets {
		for w := range t.sets[s] {
			if t.sets[s][w].Valid {
				n++
			}
		}
	}
	return n
}
