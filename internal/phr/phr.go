// Package phr models the Path History Register (PHR) of the conditional
// branch predictor in modern Intel CPUs, as reverse engineered by Half&Half
// (Yavarzadeh et al., S&P 2023) and used by Pathfinder (ASPLOS 2024).
//
// The PHR records the history of the last N taken branches (N = 194 on
// Alder/Raptor Lake, 93 on Skylake), conditional or unconditional. A taken
// branch updates the PHR in two steps: a leftward shift by two bits, then an
// XOR of a 16-bit "branch footprint" derived from the branch address and its
// target address into the low 16 bits:
//
//	PHR_new = (PHR_old << 2) ^ footprint
//
// Because the shift distance is two bits, even and odd bit positions never
// mix, and the PHR is best understood as a shift register of N two-bit
// "doublets". Doublet(0) is the least significant (most recent) doublet.
//
// Internally the register is bit-packed into 64-bit words: attack workloads
// execute hundreds of millions of predicted branches, and the PHT index/tag
// folds over this register are the hot path of the whole simulator.
package phr

import (
	"fmt"
	"strings"
)

// Doublet is a two-bit PHR element. Valid values are 0..3.
type Doublet = uint8

// History is the read surface the predictor structures need from a path
// history register. Both the packed production register (*Reg) and the
// deliberately naive reference register (refmodel.PHR) satisfy it, which is
// what lets either implementation back the PHTs and the CBP and makes the
// two differentially testable against each other.
type History interface {
	// Size returns the register length in doublets.
	Size() int
	// Gen returns a counter that changes on every mutation; predictor
	// structures use (value identity, Gen) pairs to memoize fold results.
	Gen() uint64
	// Doublet returns doublet i (0 = most recent).
	Doublet(i int) Doublet
	// Fold XOR-folds the lowest histLen doublets into width bits.
	Fold(histLen, width int) uint32
	// FoldMix is the tag fold: like Fold but rotating between chunks.
	FoldMix(histLen, width int) uint32
}

// FootprintDoublets is the number of doublets occupied by a branch
// footprint (16 bits = 8 doublets).
const FootprintDoublets = 8

// Footprint computes the 16-bit branch footprint from a branch instruction
// address and its target address, following the bit layout of Figure 2 of
// the Pathfinder paper. Sixteen bits of the branch address (B0..B15, bits
// 15:0) and six bits of the target address (T0..T5, bits 5:0) are combined;
// positions are listed from bit 15 down to bit 0:
//
//	B12 B13 B5 B6 B7 B8 B9 B10 B0^T2 B1^T3 B2^T4 B11^T5 B14 B15 B3^T0 B4^T1
//
// Consequences used throughout the attack primitives:
//   - a branch whose address has its low 16 bits zero and whose target has
//     its low 6 bits zero has a zero footprint (pure PHR shift), and
//   - doublet 0 of the footprint (bits 1:0) is (B3^T0, B4^T1), so with an
//     otherwise-zero branch, target bits T0 and T1 choose doublet 0 freely.
//
// Every output bit is the XOR of independent branch-address and
// target-address bits, so the shuffle separates: Footprint(b, t) =
// Footprint(b, 0) ^ Footprint(0, t). The two contributions are precomputed
// into lookup tables at init (64K entries for the branch half, 64 for the
// target half), turning the per-taken-branch bit shuffle into two loads and
// an XOR.
func Footprint(branchAddr, targetAddr uint64) uint16 {
	return footB[branchAddr&0xffff] ^ footT[targetAddr&0x3f]
}

var (
	footB [1 << 16]uint16
	footT [1 << 6]uint16
)

func init() {
	for a := range footB {
		footB[a] = footprintSlow(uint64(a), 0)
	}
	for t := range footT {
		footT[t] = footprintSlow(0, uint64(t))
	}
}

// footprintSlow is the literal Figure 2 bit shuffle. It seeds the lookup
// tables and pins them in the differential tests.
func footprintSlow(branchAddr, targetAddr uint64) uint16 {
	b := func(i uint) uint16 { return uint16(branchAddr>>i) & 1 }
	t := func(i uint) uint16 { return uint16(targetAddr>>i) & 1 }
	var f uint16
	f |= b(12) << 15
	f |= b(13) << 14
	f |= b(5) << 13
	f |= b(6) << 12
	f |= b(7) << 11
	f |= b(8) << 10
	f |= b(9) << 9
	f |= b(10) << 8
	f |= (b(0) ^ t(2)) << 7
	f |= (b(1) ^ t(3)) << 6
	f |= (b(2) ^ t(4)) << 5
	f |= (b(11) ^ t(5)) << 4
	f |= b(14) << 3
	f |= b(15) << 2
	f |= (b(3) ^ t(0)) << 1
	f |= (b(4) ^ t(1)) << 0
	return f
}

// maxWords covers 194 doublets = 388 bits.
const maxWords = 7

// foldSlots is the number of (histLen, width) fold values a register caches.
// The Table 1 configs need at most four live folds per register: one 8-bit
// index fold per tagged table (three history lengths) plus the 16-bit IBP
// fold over the full window.
const foldSlots = 4

// foldOpsCap bounds the deferred-update ring. Attack write/clear chains are
// hundreds of taken branches between fold reads; once the ring fills the
// cache gives up (invalidates) so chain-heavy code pays only a counter check
// per branch and the next Fold recomputes from scratch. Branch-at-a-time
// victim code reads folds every branch, so its ring depth stays at one.
const foldOpsCap = 8

// foldEntry is one incrementally maintained Fold(histLen, width) value.
type foldEntry struct {
	valid   bool
	histLen int32 // clamped to the register size
	width   int32
	val     uint32
	posB    uint8  // (2*histLen) % width: fold position of the outgoing low top bit
	posB1   uint8  // (2*histLen + 1) % width
	fpMask  uint16 // footprint bits inside the history window
}

// foldOp is one deferred Update/ReverseUpdate. The doublets the incremental
// formulas need are captured at mutation time (they may be shifted out of
// the register before the op is replayed).
type foldOp struct {
	fp   uint16
	rev  bool
	low  uint8            // reverse only: low doublet after footprint removal
	tops [foldSlots]uint8 // per slot: outgoing (fwd) / incoming (rev) window-top doublet
}

// Reg is a PHR of a fixed doublet length. The zero value is not usable; use
// New. Clone gives an independent copy; Equal compares contents.
//
// Attached to every register is a FoldCache: up to foldSlots incrementally
// maintained Fold results. Update and ReverseUpdate append O(1) deferred ops
// instead of forcing an immediate re-fold of up to seven words; the next
// Fold call replays pending ops against each cached entry. Structural
// mutators (SetDoublet, Shift, Clear, ...) invalidate the cache. All cache
// state lives in value arrays so Clone and CopyFrom stay plain copies.
type Reg struct {
	w       [maxWords]uint64
	size    int    // doublets
	topMask uint64 // valid-bit mask for the highest word in use
	gen     uint64 // bumped on every mutation; lets predictors memoize folds

	folds    [foldSlots]foldEntry
	ops      [foldOpsCap]foldOp
	nops     int
	nvalid   int
	nextSlot int // round-robin eviction cursor

	// Content-keyed fold memoization. contents assigns a small integer
	// identity to recently seen register contents (one full-window compare
	// per mutation, memoized by gen); cvals is a direct-mapped cache of
	// Fold/FoldMix results keyed by (content id, histLen, width, kind).
	// Fold values are pure functions of content, so entries never need
	// invalidation — a stale entry simply stops matching. This is what
	// makes hot loops cheap: once a loop's footprint sequence has filled
	// the history window the register content is periodic, every content
	// in the cycle is already in the cache, and each fold costs a content
	// probe instead of streaming up to seven words. All of it is value
	// state, like folds, so Clone stays a plain copy; CopyFrom does not
	// copy it (ids are register-local).
	contents    [contentSlots]contentEntry
	nextContent int
	lastSlot    int    // slot of the last content match, probed first
	contentSeq  uint64 // id generator; ids are never reused within a Reg
	lastGen     uint64 // gen at which lastCID was established
	lastCID     uint64 // content id of the current content; 0 = unknown
	cvals       [cvalSlots]cvalEntry
}

// contentSlots is the number of distinct register contents tracked. It
// covers loops with up to contentSlots taken branches per iteration; longer
// cycles degrade gracefully to recomputation.
const contentSlots = 16

// cvalSlots sizes the direct-mapped fold-result cache: six live
// (histLen, width, kind) combinations per content for the Table 1 configs
// (three index folds, three tag folds), times the content cycle length.
const cvalSlots = 64

// contentEntry names one register content: a full window image and its id.
type contentEntry struct {
	id uint64 // 0 = empty
	w  [maxWords]uint64
}

// cvalEntry is one memoized fold result for (content, histLen, width, kind).
type cvalEntry struct {
	cid uint64 // content id; 0 = empty
	key uint32 // histLen<<8 | width<<1 | kind (1 = FoldMix, 0 = Fold)
	val uint32
}

// eqWords compares two window images with an early exit on the low words,
// where histories diverge first; inlining this beats a memequal call on the
// hot path.
func eqWords(a, b *[maxWords]uint64) bool {
	return a[0] == b[0] && a[1] == b[1] && a[2] == b[2] && a[3] == b[3] &&
		a[4] == b[4] && a[5] == b[5] && a[6] == b[6]
}

// ContentID returns a register-local identity for the current content:
// equal results name equal contents, and an id is never reused for a
// different content within one register (ids from different registers are
// unrelated). Unseen contents are registered on the fly, cycling through a
// fixed number of slots. Predictor structures use (register, ContentID)
// pairs to memoize values that are pure functions of history content —
// unlike Gen-keyed memos these keep hitting across mutations whenever a
// loop returns the register to a content already seen.
//
// The result is memoized per gen. A fresh gen probes the slot of the last
// match first (loops revisit contents in cycle order, so this is almost
// always right), then scans.
func (r *Reg) ContentID() uint64 {
	if r.lastGen == r.gen && r.lastCID != 0 {
		return r.lastCID
	}
	if c := &r.contents[r.lastSlot]; c.id != 0 && eqWords(&c.w, &r.w) {
		r.lastGen, r.lastCID = r.gen, c.id
		return c.id
	}
	if c := &r.contents[(r.lastSlot+1)%contentSlots]; c.id != 0 && eqWords(&c.w, &r.w) {
		r.lastSlot = (r.lastSlot + 1) % contentSlots
		r.lastGen, r.lastCID = r.gen, c.id
		return c.id
	}
	for i := range r.contents {
		c := &r.contents[i]
		if c.id != 0 && eqWords(&c.w, &r.w) {
			r.lastSlot = i
			r.lastGen, r.lastCID = r.gen, c.id
			return c.id
		}
	}
	r.contentSeq++
	id := r.contentSeq
	r.contents[r.nextContent] = contentEntry{id: id, w: r.w}
	r.lastSlot = r.nextContent
	r.nextContent = (r.nextContent + 1) % contentSlots
	r.lastGen, r.lastCID = r.gen, id
	return id
}

// cvalIndex hashes a (content id, fold key) pair into the direct-mapped
// result cache.
func cvalIndex(cid uint64, key uint32) int {
	h := (cid ^ uint64(key)<<40) * 0x9e3779b97f4a7c15
	return int(h>>58) & (cvalSlots - 1)
}

var _ History = (*Reg)(nil)

// New returns an all-zero PHR with capacity for size doublets.
// Size must be at least FootprintDoublets and at most 194 * 2.
func New(size int) *Reg {
	if size < FootprintDoublets || 2*size > 64*maxWords {
		panic(fmt.Sprintf("phr: unsupported size %d", size))
	}
	topMask := ^uint64(0)
	if rem := uint(2*size) % 64; rem != 0 {
		topMask = 1<<rem - 1
	}
	return &Reg{size: size, topMask: topMask}
}

// Size returns the PHR length in doublets.
func (r *Reg) Size() int { return r.size }

// Gen returns a counter that changes on every mutation of the register.
// Predictor structures use (pointer, Gen) pairs to memoize fold results.
func (r *Reg) Gen() uint64 { return r.gen }

// words returns the number of 64-bit words in use.
func (r *Reg) words() int { return (2*r.size + 63) / 64 }

// mask clears bits at and above 2*size in the top word. Words beyond
// words() are never written by the mutators, so only the top word in use
// needs masking (with the precomputed topMask).
func (r *Reg) mask() {
	r.w[r.words()-1] &= r.topMask
}

// Doublet returns doublet i (0 = most recent). It panics if i is out of
// range, mirroring slice semantics.
func (r *Reg) Doublet(i int) Doublet {
	if i < 0 || i >= r.size {
		panic(fmt.Sprintf("phr: doublet %d out of range [0,%d)", i, r.size))
	}
	b := 2 * uint(i)
	return Doublet(r.w[b/64]>>(b%64)) & 3
}

// SetDoublet sets doublet i to v (low two bits used).
func (r *Reg) SetDoublet(i int, v Doublet) {
	if i < 0 || i >= r.size {
		panic(fmt.Sprintf("phr: doublet %d out of range [0,%d)", i, r.size))
	}
	r.invalidateFolds()
	b := 2 * uint(i)
	r.w[b/64] = r.w[b/64]&^(3<<(b%64)) | uint64(v&3)<<(b%64)
	r.gen++
}

// Clear resets the PHR to all zeros, the state produced by shifting in Size
// zero-footprint taken branches.
func (r *Reg) Clear() {
	r.invalidateFolds()
	r.w = [maxWords]uint64{}
	r.gen++
}

// Shift shifts the PHR left by n doublets, discarding the n oldest doublets
// and zero-filling the newest positions. Shift(Size()) is equivalent to
// Clear. n must be non-negative.
func (r *Reg) Shift(n int) {
	if n < 0 {
		panic("phr: negative shift")
	}
	if n >= r.size {
		r.Clear()
		return
	}
	r.invalidateFolds()
	bits := 2 * uint(n)
	wordShift := int(bits / 64)
	bitShift := bits % 64
	nw := r.words()
	for i := nw - 1; i >= 0; i-- {
		var v uint64
		if i-wordShift >= 0 {
			v = r.w[i-wordShift] << bitShift
			if bitShift != 0 && i-wordShift-1 >= 0 {
				v |= r.w[i-wordShift-1] >> (64 - bitShift)
			}
		}
		r.w[i] = v
	}
	r.mask()
	r.gen++
}

// Update applies one taken-branch update: shift left one doublet, then XOR
// the footprint into the low 8 doublets. The shift is unrolled for the
// modeled register sizes (7 words on Alder/Raptor Lake, 3 on Skylake); this
// is the single hottest operation in the simulator — once per taken branch.
func (r *Reg) Update(footprint uint16) {
	if r.nvalid != 0 {
		r.pushOp(footprint, false, 0)
	}
	w := &r.w
	switch r.words() {
	case maxWords:
		w[6] = w[6]<<2 | w[5]>>62
		w[5] = w[5]<<2 | w[4]>>62
		w[4] = w[4]<<2 | w[3]>>62
		w[3] = w[3]<<2 | w[2]>>62
		w[2] = w[2]<<2 | w[1]>>62
		w[1] = w[1]<<2 | w[0]>>62
	case 3:
		w[2] = w[2]<<2 | w[1]>>62
		w[1] = w[1]<<2 | w[0]>>62
	default:
		for i := r.words() - 1; i > 0; i-- {
			w[i] = w[i]<<2 | w[i-1]>>62
		}
	}
	w[0] = w[0]<<2 ^ uint64(footprint)
	r.mask()
	r.gen++
}

// UpdateBranch is shorthand for Update(Footprint(branchAddr, targetAddr)).
func (r *Reg) UpdateBranch(branchAddr, targetAddr uint64) {
	r.Update(Footprint(branchAddr, targetAddr))
}

// ReverseUpdate undoes one Update with the given footprint. The doublet that
// was shifted out of the top during the forward update cannot be recovered
// from the register itself; the caller supplies it as top (use 0 when
// unknown and track the ambiguity separately).
func (r *Reg) ReverseUpdate(footprint uint16, top Doublet) {
	if r.nvalid != 0 {
		r.pushOp(footprint, true, top)
	}
	r.w[0] ^= uint64(footprint)
	nw := r.words()
	for i := 0; i < nw-1; i++ {
		r.w[i] = r.w[i]>>2 | r.w[i+1]<<62
	}
	r.w[nw-1] >>= 2
	r.gen++
	r.mask()
	// Set the recovered top doublet in place; unlike SetDoublet this must
	// not invalidate the fold cache (the deferred op already accounts for
	// the incoming doublet). Gen advances twice, matching the historical
	// Update-then-SetDoublet sequence.
	b := 2 * uint(r.size-1)
	r.w[b/64] = r.w[b/64]&^(3<<(b%64)) | uint64(top&3)<<(b%64)
	r.gen++
}

// Clone returns an independent copy of the PHR.
func (r *Reg) Clone() *Reg {
	c := *r
	return &c
}

// CopyFrom overwrites this PHR with the contents of src. Both registers
// must have the same size: copying between machines with different PHR
// depths (Raptor/Alder Lake's 194 doublets vs Skylake's 93) has no single
// correct semantics — truncating silently would discard the oldest history
// one machine's tagged tables still fold — so CopyFrom panics on a size
// mismatch rather than guessing. Callers moving history across
// architectures must resample doublet-by-doublet via Doublet/SetDoublet
// and decide explicitly which end to drop.
func (r *Reg) CopyFrom(src *Reg) {
	if r.size != src.size {
		panic(fmt.Sprintf("phr: size mismatch %d != %d", r.size, src.size))
	}
	r.w = src.w
	r.folds = src.folds
	r.ops = src.ops
	r.nops = src.nops
	r.nvalid = src.nvalid
	r.nextSlot = src.nextSlot
	r.gen++
}

// Equal reports whether two PHRs have identical size and contents.
func (r *Reg) Equal(o *Reg) bool {
	return r.size == o.size && r.w == o.w
}

// IsZero reports whether every doublet is zero.
func (r *Reg) IsZero() bool {
	return r.w == [maxWords]uint64{}
}

// Words returns the packed bit representation, a comparable value usable
// as a map key for registers of equal size.
func (r *Reg) Words() [7]uint64 { return r.w }

// SetWords loads the register from a packed representation returned by
// Words of a register of the same size. Bits beyond the register size are
// dropped. Like the other structural mutators it invalidates the fold
// cache, so callers that reuse one scratch register for many unrelated
// values pay no incremental-fold bookkeeping.
func (r *Reg) SetWords(w [7]uint64) {
	r.invalidateFolds()
	r.w = w
	for i := r.words(); i < maxWords; i++ {
		r.w[i] = 0
	}
	r.mask()
	r.gen++
}

// Doublets returns a copy of the doublet contents, index 0 most recent.
func (r *Reg) Doublets() []Doublet {
	return r.AppendDoublets(make([]Doublet, 0, r.size))
}

// AppendDoublets appends the doublet contents (index 0 most recent) to dst
// and returns the extended slice. Hot loops pass a reused buffer
// (dst[:0]-style) to keep the read allocation-free.
func (r *Reg) AppendDoublets(dst []Doublet) []Doublet {
	for i := 0; i < r.size; i++ {
		b := 2 * uint(i)
		dst = append(dst, Doublet(r.w[b/64]>>(b%64))&3)
	}
	return dst
}

// SetDoublets loads the PHR from a doublet slice (index 0 most recent).
// Extra input doublets are ignored; missing ones are zero-filled.
func (r *Reg) SetDoublets(ds []Doublet) {
	r.invalidateFolds()
	r.w = [maxWords]uint64{}
	for i := 0; i < r.size && i < len(ds); i++ {
		b := 2 * uint(i)
		r.w[b/64] |= uint64(ds[i]&3) << (b % 64)
	}
	r.gen++
}

// Fold XOR-folds the lowest histLen doublets of the PHR into a value of the
// given bit width: the packed 2*histLen-bit history is split into width-bit
// chunks (LSB first) that are XORed together. This is the history
// compression used to index the pattern history tables.
//
// Results are served from the register's incremental FoldCache when
// possible: each cached (histLen, width) value is advanced in O(1) per
// pending Update/ReverseUpdate instead of re-folding the packed words.
//
// The exact folding polynomial of Intel's hardware is not public; any fold
// with good mixing preserves the collision properties the attacks rely on
// (identical (PC, PHR) pairs collide, different PHRs almost never do). See
// DESIGN.md §1.
func (r *Reg) Fold(histLen, width int) uint32 {
	if histLen > r.size {
		histLen = r.size
	}
	if width <= 0 || width > 32 {
		panic("phr: fold width out of range")
	}
	if histLen < 1 || width < 3 {
		// Degenerate parameters: no incremental form worth keeping.
		return r.foldFull(histLen, width)
	}
	// Content-keyed fast path first: it needs no op replay, so in steady
	// loop state the deferred-op ring fills, the incremental entries give
	// up, and taken branches stop paying pushOp entirely.
	cid := r.ContentID()
	key := uint32(histLen)<<8 | uint32(width)<<1
	ce := &r.cvals[cvalIndex(cid, key)]
	if ce.cid == cid && ce.key == key {
		return ce.val
	}
	if r.nops > 0 {
		r.flushOps()
	}
	for s := range r.folds {
		e := &r.folds[s]
		if e.valid && int(e.histLen) == histLen && int(e.width) == width {
			*ce = cvalEntry{cid: cid, key: key, val: e.val}
			return e.val
		}
	}
	v := r.foldFull(histLen, width)
	r.installFold(histLen, width, v)
	*ce = cvalEntry{cid: cid, key: key, val: v}
	return v
}

// foldFull recomputes Fold from the packed words. Beyond the byte-fold
// special case, arbitrary widths stream whole words through a bit buffer
// instead of extracting each width-bit chunk separately.
func (r *Reg) foldFull(histLen, width int) uint32 {
	bits := 2 * histLen
	if width == 8 {
		// Fast path for the index folds: XOR of all bytes.
		var acc uint64
		full := bits / 64
		for i := 0; i < full && i < maxWords; i++ {
			acc ^= r.w[i]
		}
		if rem := uint(bits % 64); rem != 0 {
			acc ^= r.w[full] & (1<<rem - 1)
		}
		acc ^= acc >> 32
		acc ^= acc >> 16
		acc ^= acc >> 8
		return uint32(acc) & 0xff
	}
	w := uint(width)
	mask := uint64(1)<<w - 1
	var acc, buf uint64
	var nb uint
	rem := bits
	for i := range r.w {
		if rem <= 0 {
			break
		}
		word := r.w[i]
		n := 64
		if rem < 64 {
			word &= 1<<uint(rem) - 1
			n = rem
		}
		rem -= n
		// Feed the word in 32-bit halves so buf (< width unflushed bits,
		// width <= 32) never overflows 64 bits.
		buf |= (word & 0xffffffff) << nb
		if n < 32 {
			nb += uint(n)
		} else {
			nb += 32
		}
		for nb >= w {
			acc ^= buf & mask
			buf >>= w
			nb -= w
		}
		if n > 32 {
			buf |= (word >> 32) << nb
			nb += uint(n - 32)
			for nb >= w {
				acc ^= buf & mask
				buf >>= w
				nb -= w
			}
		}
	}
	if nb > 0 {
		acc ^= buf & mask
	}
	return uint32(acc)
}

// FoldMix is like Fold but rotates the accumulator by three bits between
// chunks. The rotation makes the tag fold linearly independent from the
// plain index fold over the same history window, so (index, tag) pairs
// carry close to their nominal combined entropy. Hardware similarly uses
// two distinct hash functions for index and tag.
//
// The chunk rotation makes FoldMix order-dependent, so unlike Fold it has
// no O(1) incremental form under the <<2 register shift; it is computed by
// streaming words and memoized in the content-keyed cache (see contentID):
// a fold value is a pure function of register content, so any recurrence of
// a content — in particular the periodic contents of every hot loop —
// serves from the cache without touching the words.
func (r *Reg) FoldMix(histLen, width int) uint32 {
	if histLen > r.size {
		histLen = r.size
	}
	if width <= 2 || width > 32 {
		panic("phr: fold width out of range")
	}
	if histLen < 1 {
		return r.foldMixValue(histLen, width)
	}
	cid := r.ContentID()
	key := uint32(histLen)<<8 | uint32(width)<<1 | 1
	e := &r.cvals[cvalIndex(cid, key)]
	if e.cid == cid && e.key == key {
		return e.val
	}
	v := r.foldMixValue(histLen, width)
	*e = cvalEntry{cid: cid, key: key, val: v}
	return v
}

func (r *Reg) foldMixValue(histLen, width int) uint32 {
	if width == 12 {
		return r.foldMix12(histLen)
	}
	return r.foldMixFull(histLen, width)
}

// foldMix12 computes FoldMix(histLen, 12) — the tag-fold width of every
// tagged table — in 48-bit lane groups instead of chunk at a time. The
// rotate-by-3 applied between 12-bit chunks has period four (4*3 = 12), so
// chunk k's total rotation depends only on k mod 4: chunks sharing a
// residue can be XOR-folded first and rotated once. Four adjacent chunks
// are 48 consecutive bits, so the grouped fold is a plain XOR of 48-bit
// windows of the packed register, followed by one rotation per lane. The
// result is bit-identical to foldMixFull(histLen, 12); the differential
// test pins that.
// mix12Rot[b][j] is the foldMix12 lane rotation 3*((b-j) mod 4) for
// b = (full-1+p) mod 4.
var mix12Rot = [4][4]uint{
	{0, 9, 6, 3},
	{3, 0, 9, 6},
	{6, 3, 0, 9},
	{9, 6, 3, 0},
}

func (r *Reg) foldMix12(histLen int) uint32 {
	bits := 2 * histLen
	full := bits / 12  // complete 12-bit chunks
	fb := full * 12    // bits covered by complete chunks
	pbits := bits - fb // trailing partial chunk width
	var t uint64       // four 12-bit lanes; lane j folds chunks with k%4 == j
	for off := 0; off < fb; off += 48 {
		wi, sh := off/64, uint(off%64)
		win := r.w[wi] >> sh
		if sh > 16 && wi+1 < maxWords {
			win |= r.w[wi+1] << (64 - sh)
		}
		n := fb - off
		if n > 48 {
			n = 48
		}
		t ^= win & (1<<uint(n) - 1)
	}
	// The generic stream applies one rotation per chunk after the chunk is
	// XORed in, plus one for the partial chunk: chunk k ends up rotated by
	// 3*((full - 1 - k + p) mod 4) bits, where p records the partial step.
	// The per-lane rotations depend only on (full - 1 + p) mod 4, so they
	// come from a static table instead of four mod chains.
	p := 0
	if pbits > 0 {
		p = 1
	}
	rots := &mix12Rot[(full-1+p)&3]
	var acc uint32
	for j := 0; j < 4; j++ {
		lane := uint32(t>>(12*j)) & 0xfff
		rot := rots[j]
		acc ^= (lane<<rot | lane>>(12-rot)) & 0xfff
	}
	if pbits > 0 {
		wi, sh := fb/64, uint(fb%64)
		part := r.w[wi] >> sh
		if int(sh)+pbits > 64 && wi+1 < maxWords {
			part |= r.w[wi+1] << (64 - sh)
		}
		acc ^= uint32(part) & (1<<uint(pbits) - 1)
	}
	return acc
}

func (r *Reg) foldMixFull(histLen, width int) uint32 {
	bits := 2 * histLen
	w := uint(width)
	mask := uint64(1)<<w - 1
	var acc, buf uint64
	var nb uint
	rem := bits
	for i := range r.w {
		if rem <= 0 {
			break
		}
		word := r.w[i]
		n := 64
		if rem < 64 {
			word &= 1<<uint(rem) - 1
			n = rem
		}
		rem -= n
		buf |= (word & 0xffffffff) << nb
		if n < 32 {
			nb += uint(n)
		} else {
			nb += 32
		}
		for nb >= w {
			acc = ((acc<<3 | acc>>(w-3)) & mask) ^ (buf & mask)
			buf >>= w
			nb -= w
		}
		if n > 32 {
			buf |= (word >> 32) << nb
			nb += uint(n - 32)
			for nb >= w {
				acc = ((acc<<3 | acc>>(w-3)) & mask) ^ (buf & mask)
				buf >>= w
				nb -= w
			}
		}
	}
	if nb > 0 {
		acc = ((acc<<3 | acc>>(w-3)) & mask) ^ buf
	}
	return uint32(acc)
}

// invalidateFolds drops every cached fold and pending op; called by the
// structural mutators whose effect on a fold is not O(1).
func (r *Reg) invalidateFolds() {
	if r.nvalid == 0 && r.nops == 0 {
		return
	}
	for s := range r.folds {
		r.folds[s].valid = false
	}
	r.nvalid = 0
	r.nops = 0
}

// pushOp defers one Update (rev=false) or ReverseUpdate (rev=true) for the
// cached folds, capturing the window-top doublet each entry will need. A
// full ring means a fold-free run of branches long enough that incremental
// replay would cost more than recomputing, so the cache gives up instead.
func (r *Reg) pushOp(fp uint16, rev bool, top Doublet) {
	if r.nops == foldOpsCap {
		r.invalidateFolds()
		return
	}
	op := &r.ops[r.nops]
	op.fp, op.rev = fp, rev
	if rev {
		op.low = uint8(r.w[0]^uint64(fp)) & 3
	}
	for s := range r.folds {
		e := &r.folds[s]
		if !e.valid {
			continue
		}
		h := int(e.histLen)
		if !rev {
			// h-1 is in range by construction (folds only cache
			// 1 <= histLen <= size), so read the doublet unchecked.
			b := 2 * uint(h-1)
			op.tops[s] = Doublet(r.w[b/64]>>(b%64)) & 3
			continue
		}
		// Reverse: the doublet entering the top of the window. For a
		// full-size window it is the caller-supplied recovered doublet;
		// otherwise it is the next doublet up in the register (with the
		// footprint removed when the window is shorter than 8 doublets).
		switch {
		case h == r.size:
			op.tops[s] = top & 3
		case h < FootprintDoublets:
			op.tops[s] = uint8((r.w[0]^uint64(fp))>>(2*uint(h))) & 3
		default:
			op.tops[s] = r.Doublet(h)
		}
	}
	r.nops++
}

// flushOps replays the deferred ops against every valid fold entry.
func (r *Reg) flushOps() {
	for i := 0; i < r.nops; i++ {
		op := &r.ops[i]
		for s := range r.folds {
			e := &r.folds[s]
			if !e.valid {
				continue
			}
			w := uint(e.width)
			mask := uint32(1)<<w - 1
			top := uint32(op.tops[s])
			fp := foldFP(op.fp&e.fpMask, w, mask)
			if !op.rev {
				// F' = rotl2(F) ^ outgoing-top bits ^ fold(fp).
				v := (e.val<<2 | e.val>>(w-2)) & mask
				v ^= (top & 1) << e.posB
				v ^= (top >> 1 & 1) << e.posB1
				e.val = v ^ fp
			} else {
				// F' = rotr2(F ^ fold(fp) ^ low bits ^ incoming-top bits).
				v := e.val ^ fp ^ uint32(op.low&3)
				v ^= (top & 1) << e.posB
				v ^= (top >> 1 & 1) << e.posB1
				e.val = (v>>2 | v<<(w-2)) & mask
			}
		}
	}
	r.nops = 0
}

// foldFP folds a footprint's contribution into a width-bit chunk. A 16-bit
// footprint spans at most two chunks once w >= 8 and one chunk once w >= 16,
// so the common fold widths (8 for indices, 12 for tags) reduce to closed
// forms; the loop remains for narrow widths.
func foldFP(fp uint16, w uint, mask uint32) uint32 {
	v := uint32(fp)
	switch {
	case w >= 16:
		return v & mask
	case w >= 8:
		return (v ^ v>>w) & mask
	}
	var acc uint32
	for v != 0 {
		acc ^= v & mask
		v >>= w
	}
	return acc
}

// installFold caches a freshly computed fold, evicting round-robin when all
// slots are live.
func (r *Reg) installFold(histLen, width int, val uint32) {
	slot := -1
	for s := range r.folds {
		if !r.folds[s].valid {
			slot = s
			break
		}
	}
	if slot < 0 {
		slot = r.nextSlot
		r.nextSlot = (r.nextSlot + 1) % foldSlots
	} else {
		r.nvalid++
	}
	b := 2 * histLen
	fpMask := uint16(0xffff)
	if b < 16 {
		fpMask = uint16(1)<<uint(b) - 1
	}
	r.folds[slot] = foldEntry{
		valid:   true,
		histLen: int32(histLen),
		width:   int32(width),
		val:     val,
		posB:    uint8(b % width),
		posB1:   uint8((b + 1) % width),
		fpMask:  fpMask,
	}
}

// String renders the PHR as doublets from most significant (oldest) to
// least significant (most recent). Runs of zeros are compressed.
func (r *Reg) String() string {
	var sb strings.Builder
	sb.WriteString("PHR[")
	zeros := 0
	for i := r.size - 1; i >= 0; i-- {
		v := r.Doublet(i)
		if v == 0 {
			zeros++
			continue
		}
		if zeros > 0 {
			fmt.Fprintf(&sb, "0*%d ", zeros)
			zeros = 0
		}
		fmt.Fprintf(&sb, "%d", v)
		if i > 0 {
			sb.WriteByte(' ')
		}
	}
	if zeros > 0 {
		fmt.Fprintf(&sb, "0*%d", zeros)
	}
	sb.WriteString("]")
	return sb.String()
}
