// Machine checkpointing: Snapshot captures every piece of predictor-visible
// microarchitectural and per-hart architectural state as flat copies, and
// RestoreFrom rewinds a compatible machine to it. The harness warm-state
// cache (internal/harness) trains once per configuration, snapshots, and
// restores per trial instead of re-running training loops.
//
// A snapshot deliberately does NOT capture:
//
//   - Memory. Pages are large and every experiment driver (re)writes the
//     values it later reads — round keys, plaintexts, probe slots — after
//     machine setup, so capturing memory would copy megabytes to preserve
//     bytes nothing reads. The cache model keys on addresses only, so cache
//     state (which IS captured) stays exact without the backing values.
//   - Aux and the decoded-program cache. Both are derived caches rebuilt
//     deterministically from the program (core's templates self-heal, and
//     progState validates statRefs against instruction addresses).
//   - Syscall/enclave stub registrations and TraceTaken. Registration is
//     driver setup, not simulated state.
//   - Options. Seed, noise probability and fault profile stay the
//     *machine's*; Reseed moves them explicitly when a restored machine
//     must follow a different trial seed.
//
// Snapshots are immutable once taken and safe to share between goroutines:
// RestoreFrom only reads the snapshot, copying into the machine
// (copy-on-use), which is what lets sharded drivers share one warm
// snapshot without weakening the Parallelism-invariance contract.
package cpu

import (
	"sort"

	"pathfinder/internal/bpu"
	"pathfinder/internal/cache"
	"pathfinder/internal/isa"
	"pathfinder/internal/phr"
)

// hartState is the saved per-hart state: the private PHR, security domain,
// the full register file with readiness stamps, the call stack and the RAND
// stream position.
type hartState struct {
	phr    phr.Reg
	domain Domain
	regs   [isa.NumRegs]uint64
	vregs  [isa.NumVRegs][16]byte
	ready  [isa.NumRegs]uint64
	stack  []frame
	rng    uint64
}

// pcStat is one saved per-branch statistic, kept pc-sorted so snapshot
// hashes do not depend on map iteration order.
type pcStat struct {
	pc uint64
	s  BranchStat
}

// Snapshot is a saved machine state. Take one with Machine.Snapshot or
// SnapshotInto; apply it with Machine.RestoreFrom. The zero value is a
// valid (empty) destination for SnapshotInto.
type Snapshot struct {
	arch    string
	phrSize int

	unit  bpu.UnitState
	data  cache.State
	ibrs  bool
	noise uint64
	injOK bool   // whether the machine had an armed fault injector
	inj   uint64 // injector PRNG state, when injOK

	stats Counters
	perPC []pcStat
	harts []hartState

	hash uint64
}

// Hash returns the snapshot's content hash, computed eagerly when the
// snapshot is taken. Equal hashes mean (up to hash collisions) equal
// captured state; the warm-state cache and the differential tests use it
// as a cheap equality check.
func (s *Snapshot) Hash() uint64 { return s.hash }

// Arch returns the name of the microarchitecture the snapshot was taken on.
func (s *Snapshot) Arch() string { return s.arch }

// Snapshot captures the machine's complete predictor-visible state into a
// fresh Snapshot. See the package comment above for what is and is not
// captured. It panics on a machine with a custom predictor
// (Options.NewPredictor): an oracle's state cannot be captured generically,
// exactly as with Recycle.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{}
	m.SnapshotInto(s)
	return s
}

// SnapshotInto captures the machine state into dst, reusing dst's storage
// so steady-state checkpointing allocates nothing.
func (m *Machine) SnapshotInto(dst *Snapshot) {
	if m.opts.NewPredictor != nil {
		panic("cpu: snapshot with a custom predictor")
	}
	dst.arch = m.opts.Arch.Name
	dst.phrSize = m.opts.Arch.PHRSize

	m.BPU.Save(&dst.unit)
	m.Data.Save(&dst.data)
	dst.ibrs = m.IBRS
	dst.noise = m.noise.s
	dst.injOK = m.inj != nil
	dst.inj = 0
	if m.inj != nil {
		dst.inj = m.inj.State()
	}
	dst.stats = m.stats

	dst.perPC = dst.perPC[:0]
	for pc, st := range m.perPC {
		if *st == (BranchStat{}) {
			continue // zeroed in place by ResetStats/Recycle; same as absent
		}
		dst.perPC = append(dst.perPC, pcStat{pc: pc, s: *st})
	}
	sort.Slice(dst.perPC, func(i, j int) bool { return dst.perPC[i].pc < dst.perPC[j].pc })

	if len(dst.harts) != len(m.harts) {
		dst.harts = make([]hartState, len(m.harts))
	}
	for i, h := range m.harts {
		hs := &dst.harts[i]
		hs.phr = *h.PHR // storage only; restore goes through CopyFrom
		hs.domain = h.Domain
		hs.regs = h.regs
		hs.vregs = h.vregs
		hs.ready = h.ready
		hs.stack = append(hs.stack[:0], h.stack...)
		hs.rng = h.rng.s
	}

	dst.hash = dst.computeHash()

	// The machine now matches dst exactly, so it is in restore-sync with it:
	// regions whose dirty bits are clear equal dst's capture of them (the
	// bits stay raised for anything mutated since the last restore — a
	// conservative superset of what could differ). A later RestoreFrom(dst)
	// — or of any snapshot with equal content — may take the dirty-only path.
	m.syncOK, m.syncHash = true, dst.hash
}

// RestoreFrom rewinds the machine to a previously captured snapshot. The
// snapshot must come from a machine of the same microarchitecture, hart
// count and fault-armament (the injector's *profile* stays the machine's
// own; only its PRNG position is restored), and neither side may use a
// custom predictor. RestoreFrom panics otherwise — a silent cross-config
// restore would corrupt an experiment, not degrade it.
//
// The machine's Options (seed, noise probability, fault profile) are not
// touched; use Reseed to move the derived PRNG streams to a new seed after
// restoring.
func (m *Machine) RestoreFrom(s *Snapshot) {
	if m.opts.NewPredictor != nil {
		panic("cpu: restore with a custom predictor")
	}
	if s.arch != m.opts.Arch.Name || s.phrSize != m.opts.Arch.PHRSize {
		panic("cpu: restore across microarchitectures")
	}
	if len(s.harts) != len(m.harts) {
		panic("cpu: restore with a different hart count")
	}
	if s.injOK != (m.inj != nil) {
		panic("cpu: restore across fault-injection configurations")
	}

	// Dirty-only fast path: when the machine's clean predictor/cache regions
	// provably match s (it was last synced to a state with s's content hash,
	// and the dirty bitmaps recorded every mutation since), copy just the
	// dirty regions. Hash equality stands in for content equality here
	// exactly as it does in the warm-state cache and the differential
	// suites. Everything scalar or footprint-sized below is copied either
	// way.
	if m.syncOK && m.syncHash == s.hash {
		m.BPU.RestoreDirty(&s.unit)
		m.Data.RestoreDirty(&s.data)
	} else {
		m.BPU.Restore(&s.unit)
		m.Data.Restore(&s.data)
	}
	m.IBRS = s.ibrs
	m.noise.s = s.noise
	if m.inj != nil {
		m.inj.SetState(s.inj)
	}
	m.stats = s.stats

	// Zero the live per-branch stats in place (decoded-program statRefs stay
	// valid, and a zeroed stat reads the same as an absent one), then lay
	// down the captured values.
	for _, st := range m.perPC {
		*st = BranchStat{}
	}
	for i := range s.perPC {
		*m.branchStat(s.perPC[i].pc) = s.perPC[i].s
	}

	for i, h := range m.harts {
		hs := &s.harts[i]
		// CopyFrom, not assignment: it advances the destination's generation
		// monotonically, so the CBP's (register, generation)-keyed fold memo
		// can never serve a stale entry after a rewind.
		h.PHR.CopyFrom(&hs.phr)
		h.Domain = hs.domain
		h.regs = hs.regs
		h.vregs = hs.vregs
		h.ready = hs.ready
		h.stack = append(h.stack[:0], hs.stack...)
		h.rng.s = hs.rng
	}

	m.syncOK, m.syncHash = true, s.hash
}

// Reseed re-derives every seed-dependent PRNG stream — the transient-noise
// stream, each hart's RAND stream and the fault injector — exactly as
// New(opts) with the new seed would, leaving all other state alone. A
// restored machine plus Reseed is how one warm snapshot serves many trial
// seeds.
func (m *Machine) Reseed(seed int64) {
	m.opts.Seed = seed
	m.noise = splitmix64{s: uint64(seed)*2654435761 + 1}
	if m.inj != nil {
		m.inj.Reset(seed)
	}
	for i, h := range m.harts {
		h.rng = splitmix64{s: uint64(seed) + uint64(i)*0x632be59bd9b4e019 + 7}
	}
}

// computeHash folds the whole captured state, FNV-1a style.
func (s *Snapshot) computeHash() uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	mix := func(w uint64) { h = (h ^ w) * prime }

	for i := 0; i < len(s.arch); i++ {
		mix(uint64(s.arch[i]))
	}
	mix(uint64(s.phrSize))
	h = s.unit.Hash(h)
	h = s.data.Hash(h)
	if s.ibrs {
		mix(1)
	} else {
		mix(0)
	}
	mix(s.noise)
	if s.injOK {
		mix(s.inj)
	}
	mix(s.stats.Instructions)
	mix(s.stats.Cycles)
	mix(s.stats.CondBranches)
	mix(s.stats.TakenBranches)
	mix(s.stats.Mispredicts)
	mix(s.stats.TransientInstrs)
	mix(s.stats.Runs)
	for i := range s.perPC {
		p := &s.perPC[i]
		mix(p.pc)
		mix(p.s.Executed)
		mix(p.s.Taken)
		mix(p.s.Mispredicted)
	}
	for i := range s.harts {
		hs := &s.harts[i]
		for _, w := range hs.phr.Words() {
			mix(w)
		}
		mix(uint64(hs.domain))
		for _, r := range hs.regs {
			mix(r)
		}
		for _, v := range hs.vregs {
			for _, b := range v {
				mix(uint64(b))
			}
		}
		for _, r := range hs.ready {
			mix(r)
		}
		mix(uint64(len(hs.stack)))
		for _, f := range hs.stack {
			mix(uint64(uint32(f.retIdx)))
			if f.restoreDomain {
				mix(uint64(f.prevDomain) | 1<<8)
			}
		}
		mix(hs.rng)
	}
	return h
}
