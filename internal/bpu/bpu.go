// Package bpu assembles the branch prediction unit of the modeled Intel
// CPUs: the conditional branch predictor (CBP — base predictor plus tagged
// pattern history tables driven by the path history register), a branch
// target buffer (BTB) and an indirect branch predictor (IBP).
//
// The CBP follows the TAGE discipline the paper attributes to Intel
// hardware: the prediction comes from the hit table with the longest
// history ("provider"); on a misprediction a fresh weak entry is allocated
// in a table with a longer history. Only conditional branches interact with
// the CBP; every taken branch (conditional or not) updates the PHR, which
// is owned by each logical core (hart) and passed in by the caller.
package bpu

import (
	"fmt"
	"strings"

	"pathfinder/internal/phr"
	"pathfinder/internal/pht"
)

// Config describes one target microarchitecture (Table 1 of the paper).
type Config struct {
	Name       string // microarchitecture name
	Model      string // the paper's example part
	PHRSize    int    // taken-branch history depth in doublets
	TableHists []int  // PHR doublets folded by each tagged table, ascending
}

// The three machines of Table 1. Observation 1: Raptor Lake's PHR structure
// is identical to Alder Lake's. Skylake keeps the same three-table layout
// with its shorter 93-doublet PHR capping the longest history.
var (
	RaptorLake = Config{Name: "Raptor Lake", Model: "Core i9-13900KS", PHRSize: 194, TableHists: []int{34, 66, 194}}
	AlderLake  = Config{Name: "Alder Lake", Model: "Core i9-12900", PHRSize: 194, TableHists: []int{34, 66, 194}}
	Skylake    = Config{Name: "Skylake", Model: "Core i7-6770HQ", PHRSize: 93, TableHists: []int{34, 66, 93}}
)

// Configs lists the modeled machines in Table 1 order.
func Configs() []Config { return []Config{RaptorLake, AlderLake, Skylake} }

// Prediction is the CBP output for one conditional branch, retained by the
// caller and passed back to Update at resolution.
type Prediction struct {
	Taken    bool
	Provider int  // index into Tables, or -1 for the base predictor
	AltTaken bool // prediction of the next-longest component
}

// Predictor is the conditional-branch-predictor surface the CPU model and
// the experiment harness drive. Two implementations exist: the packed,
// memoized CBP in this package (the production model) and the deliberately
// naive oracle in internal/refmodel. internal/trace replays identical
// branch streams through both and reports the first divergence, so the fast
// model can be refactored without silently drifting from the paper's §2.2
// update discipline.
type Predictor interface {
	// Config returns the modeled microarchitecture.
	Config() Config
	// Predict returns the direction prediction for a conditional branch.
	Predict(pc uint64, h phr.History) Prediction
	// Update resolves a conditional branch with its actual outcome.
	Update(pc uint64, h phr.History, taken bool, p Prediction)
	// Flush clears all predictor state.
	Flush()
	// DumpState renders the full predictor state for divergence reports.
	DumpState() string
}

// UsefulResetPeriod is how many conditional-branch updates pass between
// global usefulness-counter decays — TAGE's periodic reset, scaled to the
// model's table sizes. Without it long-running victims pin every way of hot
// sets as "useful" and fresh correlations can never allocate.
const UsefulResetPeriod = 4096

// CBP is the conditional branch predictor of Figure 3.
//
// Besides the predictor state it carries a content-keyed fold table: a
// register's index and tag folds depend only on its content, and a victim
// replays the same few hundred contents through the same branches run after
// run, so the folds of recent contents are kept instead of recomputed. The
// table is derived state, a pure function of register content and
// TableHists: it is not saved, hashed, encoded or dumped, and Flush, Reset
// and the restore paths leave it alone. Predict writes it, so a CBP is used
// by one goroutine at a time.
type CBP struct {
	cfg     Config
	Base    *pht.BaseTable
	Tables  []*pht.TaggedTable
	updates uint64

	folds [foldSets][foldWays]foldEntry
	next  [foldSets]uint8 // per-set round-robin replacement cursor

	// The folds of the last register probed, by value, so a branch's
	// Predict and Update probe the table once. Keyed by register identity
	// and Gen, which moves on every mutation.
	memoReg *phr.Reg
	memoGen uint64
	memo    [maxFoldTables]pht.Folds
}

// Fold table geometry: 64 sets of 4 ways, 72 bytes an entry, about 18 KB per
// CBP. A 1,024-entry direct-mapped table is no faster on §8 image recovery
// and costs a service running many machines more memory; a 256-entry
// direct-mapped one loses about half the gain to conflicts.
const (
	foldSetBits = 6
	foldSets    = 1 << foldSetBits
	foldWays    = 4
)

// maxFoldTables is the number of tagged tables a fold-table entry covers,
// the three of every Table 1 machine.
const maxFoldTables = 3

// foldEntry maps one register content, its words and its size, to the
// PC-free folds of every tagged table. The size is part of the key because
// a table longer than the register folds only the register's doublets. No
// register has size 0, so a zeroed entry matches nothing and the table needs
// no valid bits.
type foldEntry struct {
	key   [7]uint64
	size  uint16
	folds [maxFoldTables]pht.Folds
}

// NewCBP builds an empty CBP for the given microarchitecture.
func NewCBP(cfg Config) *CBP {
	if len(cfg.TableHists) > maxFoldTables {
		panic(fmt.Sprintf("bpu: %d tagged tables, at most %d supported", len(cfg.TableHists), maxFoldTables))
	}
	c := &CBP{cfg: cfg, Base: pht.NewBase()}
	for _, h := range cfg.TableHists {
		c.Tables = append(c.Tables, pht.NewTagged(h))
	}
	return c
}

// Config returns the microarchitecture this CBP models.
func (c *CBP) Config() Config { return c.cfg }

// foldsOf returns the PC-free folds of every tagged table for history h. A
// *phr.Reg goes through the fold table; any other history is folded
// directly.
func (c *CBP) foldsOf(h phr.History) [maxFoldTables]pht.Folds {
	r, ok := h.(*phr.Reg)
	if !ok {
		return c.fold(h)
	}
	if r == c.memoReg && r.Gen() == c.memoGen {
		return c.memo
	}
	w, size := r.Words(), uint16(r.Size())
	si := foldSet(&w)
	set := &c.folds[si]
	var e *foldEntry
	for i := range set {
		if eqWords(&set[i].key, &w) && set[i].size == size {
			e = &set[i]
			break
		}
	}
	if e == nil {
		way := c.next[si]
		c.next[si] = (way + 1) % foldWays
		e = &set[way]
		e.key, e.size, e.folds = w, size, c.fold(r)
	}
	c.memoReg, c.memoGen, c.memo = r, r.Gen(), e.folds
	return e.folds
}

// fold folds h for every tagged table.
func (c *CBP) fold(h phr.History) (f [maxFoldTables]pht.Folds) {
	for i, t := range c.Tables {
		f[i] = t.Folds(h)
	}
	return f
}

// foldSet hashes a register content to its fold-table set. Every word takes
// part, so contents that differ only in old doublets spread too.
func foldSet(w *[7]uint64) uint8 {
	h := w[0]*0x9e3779b97f4a7c15 + w[1]*0xc2b2ae3d27d4eb4f + w[2]*0x165667b19e3779f9 +
		w[3]*0xd6e8feb86659fd93 + w[4]*0xff51afd7ed558ccd + w[5]*0xc4ceb9fe1a85ec53 +
		w[6]*0x94d049bb133111eb
	return uint8(h >> (64 - foldSetBits))
}

// eqWords compares two contents in full, low words first, where histories
// diverge first; written out, it beats a memequal call on the hot path.
func eqWords(a, b *[7]uint64) bool {
	return a[0] == b[0] && a[1] == b[1] && a[2] == b[2] && a[3] == b[3] &&
		a[4] == b[4] && a[5] == b[5] && a[6] == b[6]
}

// Predict returns the direction prediction for a conditional branch at pc
// under path history h.
func (c *CBP) Predict(pc uint64, h phr.History) Prediction {
	f := c.foldsOf(h)
	base := c.Base.Predict(pc)
	p := Prediction{Provider: -1, Taken: base, AltTaken: base}
	for i, t := range c.Tables { // ascending history; later hits override
		if e, hit := t.LookupFolds(pc, f[i]); hit {
			p.AltTaken = p.Taken
			p.Taken = e.Ctr.Taken()
			p.Provider = i
		}
	}
	return p
}

// Update resolves a conditional branch: trains the provider component and,
// on a misprediction, allocates a weak entry in a longer-history table
// (the shortest one with room; full sets age their usefulness counters).
func (c *CBP) Update(pc uint64, h phr.History, taken bool, p Prediction) {
	c.updates++
	if c.updates%UsefulResetPeriod == 0 {
		for _, t := range c.Tables {
			t.DecayUseful()
		}
	}
	f := c.foldsOf(h)
	if p.Provider < 0 {
		c.Base.Update(pc, taken)
	} else {
		t := c.Tables[p.Provider]
		if e, hit := t.LookupFolds(pc, f[p.Provider]); hit {
			e.Ctr = e.Ctr.Update(taken)
			if p.Taken != p.AltTaken {
				if p.Taken == taken {
					if e.Useful < pht.UsefulMax {
						e.Useful++
					}
				} else if e.Useful > 0 {
					e.Useful--
				}
			}
		}
	}
	if p.Taken != taken {
		for i := p.Provider + 1; i < len(c.Tables); i++ {
			if c.Tables[i].AllocateFolds(pc, f[i], taken) {
				break
			}
		}
	}
}

// Flush clears every CBP structure. On hardware this has no architectural
// instruction and costs on the order of 100k branches (§10.2); the
// mitigation experiments model that cost separately.
func (c *CBP) Flush() {
	c.Base.Reset()
	for _, t := range c.Tables {
		t.Reset()
	}
}

// Reset returns the CBP to its power-on state: Flush plus a rewind of the
// periodic usefulness-decay phase. Flush alone models the §10.2 mitigation,
// which cannot touch the decay clock; Reset exists for machine recycling,
// where a reused predictor must be bit-identical to a newly built one.
func (c *CBP) Reset() {
	c.Flush()
	c.updates = 0
}

// DumpState renders every trained base counter and every valid tagged entry,
// the payload of a differential-divergence report (internal/trace).
func (c *CBP) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CBP %s (updates=%d)\n", c.cfg.Name, c.updates)
	b.WriteString(c.Base.Dump())
	for i, t := range c.Tables {
		fmt.Fprintf(&b, "table %d (hist %d):\n", i, t.HistLen)
		b.WriteString(t.Dump())
	}
	return b.String()
}

var _ Predictor = (*CBP)(nil)

// btbEntry is a BTB slot, packed to 16 bytes: key is the branch PC plus
// one, so zero means invalid and a lookup is a single comparison.
type btbEntry struct {
	key    uint64 // pc + 1; 0 = invalid
	target uint64
}

// BTB is a direct-mapped branch target buffer. Its only role in this model
// is to exist as the structure IBPB actually flushes, demonstrating that
// Intel's indirect-branch defenses leave the CBP and PHR untouched
// (Table 2, §7.4).
type BTB struct {
	entries []btbEntry

	// dirty has one bit per 64-entry bank (4096 entries → 64 banks → one
	// word), raised when Insert writes a slot or Flush clears the table;
	// RestoreDirty copies only marked banks.
	dirty uint64
}

// btbEntries is the BTB's slot count, a power of two.
const btbEntries = 4096

// NewBTB returns an empty 4096-entry BTB.
func NewBTB() *BTB { return &BTB{entries: make([]btbEntry, btbEntries)} }

// slot masks rather than divides; the entry count is a power of two.
func (b *BTB) slot(pc uint64) *btbEntry { return &b.entries[pc&uint64(len(b.entries)-1)] }

// Insert records a taken branch target. Hot loops re-insert the same
// mapping on every iteration, so an already-current slot is left untouched
// (and, deliberately, not marked dirty).
func (b *BTB) Insert(pc, target uint64) {
	e := b.slot(pc)
	if e.key != pc+1 || e.target != target {
		bank := (pc & uint64(len(b.entries)-1)) * 64 / uint64(len(b.entries))
		b.dirty |= 1 << bank
		*e = btbEntry{key: pc + 1, target: target}
	}
}

// BTBRunSlots is how many distinct slots a BTBRun holds. The §4 PHR gadgets
// place every jump at a 64 KiB boundary plus 0–3 bytes, so a gadget chain
// writes slots 0–3 of the direct-mapped table however long it is.
const BTBRunSlots = 4

// BTBRun is the net effect of a sequence of Insert calls on the few slots
// they write: per slot, the last (pc, target) written and whether the
// writes differed. InsertRun applies it with exactly the entries and dirty
// bits of the Inserts in order. A slot whose writes all agree behaves as
// one Insert of that write. A slot that saw two different writes was
// changed by the second of them, so its bank is dirty whatever it ends
// holding.
type BTBRun struct {
	last  [BTBRunSlots]btbEntry
	mixed uint8 // bit i: slot last[i] saw differing writes
	n     uint8
}

// Add records Insert(pc, target). It records nothing and reports false when
// pc maps to a slot the run does not hold and the run already holds
// BTBRunSlots slots.
func (r *BTBRun) Add(pc, target uint64) bool {
	e := btbEntry{key: pc + 1, target: target}
	for i := range r.n {
		if (r.last[i].key-1)&(btbEntries-1) == pc&(btbEntries-1) {
			if r.last[i] != e {
				r.mixed |= 1 << i
				r.last[i] = e
			}
			return true
		}
	}
	if r.n == BTBRunSlots {
		return false
	}
	r.last[r.n] = e
	r.n++
	return true
}

// InsertRun applies run: per slot it holds, the Insert of its last write,
// which marks the bank dirty also when the slot already held that write
// but the run's writes differed.
func (b *BTB) InsertRun(run *BTBRun) {
	for i := range run.n {
		e, pc := run.last[i], run.last[i].key-1
		if s := b.slot(pc); *s != e || run.mixed&(1<<i) != 0 {
			bank := (pc & uint64(len(b.entries)-1)) * 64 / uint64(len(b.entries))
			b.dirty |= 1 << bank
			*s = e
		}
	}
}

// Lookup predicts the target for pc.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	e := b.slot(pc)
	if e.key == pc+1 {
		return e.target, true
	}
	return 0, false
}

// Flush invalidates the BTB (the effect of IBPB).
func (b *BTB) Flush() {
	b.dirty = ^uint64(0)
	for i := range b.entries {
		b.entries[i] = btbEntry{}
	}
}

// Occupancy counts valid BTB entries.
func (b *BTB) Occupancy() int {
	n := 0
	for _, e := range b.entries {
		if e.key != 0 {
			n++
		}
	}
	return n
}

// IBP is the indirect branch predictor: targets keyed by PC and folded path
// history. Like the BTB it exists so IBPB/IBRS have their documented effect
// — and *only* that effect.
type IBP struct {
	targets map[uint64]uint64

	// dirty is coarse (the whole map): the IBP is tiny or empty on every
	// measured path, so per-key tracking would cost more than it saves.
	dirty bool
}

// NewIBP returns an empty indirect predictor.
func NewIBP() *IBP { return &IBP{targets: make(map[uint64]uint64)} }

func ibpKey(pc uint64, h phr.History) uint64 {
	return pc<<16 ^ uint64(h.Fold(h.Size(), 16))
}

// Insert records an indirect branch target for (pc, history).
func (p *IBP) Insert(pc uint64, h phr.History, target uint64) {
	p.dirty = true
	p.targets[ibpKey(pc, h)] = target
}

// Lookup predicts an indirect target.
func (p *IBP) Lookup(pc uint64, h phr.History) (uint64, bool) {
	t, ok := p.targets[ibpKey(pc, h)]
	return t, ok
}

// Flush clears the IBP (the effect of IBPB; IBRS restricts its use across
// privilege transitions, modeled as a flush at transition time). The map is
// cleared in place so the per-trial Recycle path stays allocation-free.
func (p *IBP) Flush() {
	p.dirty = true
	clear(p.targets)
}

// Occupancy counts recorded indirect targets.
func (p *IBP) Occupancy() int { return len(p.targets) }

// Unit bundles the shared predictor structures of one physical core. The
// PHR is deliberately absent: each SMT hart owns a private PHR (§7.3),
// while the Unit is shared between co-resident harts.
type Unit struct {
	CBP *CBP
	BTB *BTB
	IBP *IBP
}

// NewUnit builds the shared predictor state for one physical core.
func NewUnit(cfg Config) *Unit {
	return &Unit{CBP: NewCBP(cfg), BTB: NewBTB(), IBP: NewIBP()}
}

// Reset returns every predictor structure to power-on state (machine
// recycling; not a modeled hardware operation).
func (u *Unit) Reset() {
	u.CBP.Reset()
	u.BTB.Flush()
	u.IBP.Flush()
}

// IBPB models Intel's Indirect Branch Predictor Barrier: it flushes the
// BTB and IBP but leaves the CBP (PHTs) — and each hart's PHR — intact,
// which is exactly why it does not mitigate the Pathfinder attacks
// (Table 2).
func (u *Unit) IBPB() {
	u.BTB.Flush()
	u.IBP.Flush()
}
