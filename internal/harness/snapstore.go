package harness

import (
	"sync"
	"sync/atomic"

	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
)

// The snapshot-store spill tier: an optional persistent backing store for
// the process-global warm cache. When one is installed (pathfinderd and
// noisebench open internal/snapstore under their data directory), warm
// entries spill to disk as they are trained and a cache miss consults the
// store before recomputing — so a cold process (daemon restart, fresh
// cluster worker, new benchmark run) restores millisecond snapshots instead
// of re-running training phases.
//
// The tier is correctness-neutral for the same reason the in-memory cache
// is: entries are content-addressed by the full WarmStateKey, snapshots are
// immutable with copy-on-use restore, and the store verifies an FNV-1a
// payload hash plus the snapshot envelope's own content hash before
// anything is restored. A store hit is observationally identical to a local
// recompute, so reports stay byte-identical with the store installed or
// not — the grid-sweep invariance tests pin that.

// SnapStore is the persistent tier's contract. Keys are canonical
// WarmStateKey spellings (WarmStateKey.String). Load reports a verified
// entry or a miss — never a partially decoded one; Save must be atomic and
// tolerate concurrent callers (first writer wins). *snapstore.Store
// implements this natively.
type SnapStore interface {
	Load(key string) (*cpu.Snapshot, *core.ExtendedResult, bool)
	Save(key string, snap *cpu.Snapshot, rec *core.ExtendedResult)
	Stats() (hits, misses, puts, evictions uint64, bytes int64, entries int)
}

var (
	snapStoreMu sync.RWMutex
	snapStore   SnapStore

	// Harness-side consult counters: how many warm-cache misses the store
	// resolved versus passed through. Distinct from the store's own Stats —
	// these count only lookups driven by the cache, not peer serving.
	snapStoreHits   atomic.Uint64
	snapStoreMisses atomic.Uint64
)

// SetSnapStore installs (or, with nil, removes) the process-global snapshot
// store. Install before starting drivers; swapping mid-run is safe but
// leaves earlier entries only in whichever store received them.
func SetSnapStore(s SnapStore) {
	snapStoreMu.Lock()
	snapStore = s
	snapStoreMu.Unlock()
}

// InstalledSnapStore returns the currently installed store, if any.
func InstalledSnapStore() SnapStore {
	snapStoreMu.RLock()
	defer snapStoreMu.RUnlock()
	return snapStore
}

// SnapStoreStats reports how many warm-cache misses the installed store
// resolved and how many it could not.
func SnapStoreStats() (hits, misses uint64) {
	return snapStoreHits.Load(), snapStoreMisses.Load()
}

// ResetSnapStoreStats zeroes the consult counters — test and benchmark
// isolation only.
func ResetSnapStoreStats() {
	snapStoreHits.Store(0)
	snapStoreMisses.Store(0)
}

// storeLoad consults the installed store for a warm-cache miss. It runs
// outside the cache lock (disk read plus decode) and only ever returns
// fully verified entries.
func storeLoad(key warmKey) (*warmEntry, bool) {
	s := InstalledSnapStore()
	if s == nil {
		return nil, false
	}
	snap, rec, ok := s.Load(exportKey(key).String())
	if !ok || snap == nil {
		snapStoreMisses.Add(1)
		return nil, false
	}
	snapStoreHits.Add(1)
	return &warmEntry{snap: snap, rec: rec}, true
}

// storeSpill persists a warm entry. Re-spilling a resident key is a cheap
// no-op (the store is first-writer-wins), so callers spill unconditionally
// after populating the in-memory cache.
func storeSpill(key warmKey, e *warmEntry) {
	if e == nil || e.snap == nil {
		return
	}
	if s := InstalledSnapStore(); s != nil {
		s.Save(exportKey(key).String(), e.snap, e.rec)
	}
}
