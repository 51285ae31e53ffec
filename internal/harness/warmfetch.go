package harness

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pathfinder/internal/cpu"
)

// The warm-cache fetch hook: the cluster layer's bridge into the
// process-global warm-state cache. A worker that misses a per-trial warm
// snapshot can pull the identical, content-addressed snapshot a peer
// already trained instead of re-training — the snapshot contract (immutable,
// copy-on-use restore, byte-identical continuations) makes a fetched
// snapshot indistinguishable from a locally trained one, so reports stay
// byte-identical whether warm state was trained here, fetched, or absent.
//
// Only rec-free entries are exchanged: phase-level checkpoints (kind
// "aes-phase1") carry a driver-specific recovery artifact next to the
// snapshot and stay process-local. The exported surface therefore deals
// purely in (WarmStateKey, *cpu.Snapshot) pairs.

// WarmStateKey is the exported form of the warm cache's content address.
// String() is the canonical wire spelling used by heartbeat advertisements
// and fetch requests; ParseWarmStateKey inverts it.
type WarmStateKey struct {
	Kind    string  `json:"kind"`
	Arch    string  `json:"arch"`
	PHRSize int     `json:"phr_size"`
	Prog    uint64  `json:"prog"`
	Seed    int64   `json:"seed"`
	Noise   float64 `json:"noise"`
}

// String renders the canonical spelling: pipe-separated fields, hex for the
// content hash. No field of a real key contains '|' (kinds and arch names
// are identifier-like).
func (k WarmStateKey) String() string {
	return fmt.Sprintf("%s|%s|%d|%016x|%d|%g", k.Kind, k.Arch, k.PHRSize, k.Prog, k.Seed, k.Noise)
}

// ParseWarmStateKey inverts String.
func ParseWarmStateKey(s string) (WarmStateKey, error) {
	var k WarmStateKey
	parts := strings.Split(s, "|")
	if len(parts) != 6 || parts[0] == "" || parts[1] == "" {
		return k, fmt.Errorf("harness: malformed warm key %q", s)
	}
	k.Kind, k.Arch = parts[0], parts[1]
	var err error
	if k.PHRSize, err = strconv.Atoi(parts[2]); err != nil {
		return k, fmt.Errorf("harness: malformed warm key %q: %w", s, err)
	}
	if k.Prog, err = strconv.ParseUint(parts[3], 16, 64); err != nil {
		return k, fmt.Errorf("harness: malformed warm key %q: %w", s, err)
	}
	if k.Seed, err = strconv.ParseInt(parts[4], 10, 64); err != nil {
		return k, fmt.Errorf("harness: malformed warm key %q: %w", s, err)
	}
	if k.Noise, err = strconv.ParseFloat(parts[5], 64); err != nil {
		return k, fmt.Errorf("harness: malformed warm key %q: %w", s, err)
	}
	return k, nil
}

// internal key conversion.
func (k WarmStateKey) internal() warmKey {
	return warmKey{kind: k.Kind, arch: k.Arch, phrSize: k.PHRSize, prog: k.Prog, seed: k.Seed, noise: k.Noise}
}

func exportKey(k warmKey) WarmStateKey {
	return WarmStateKey{Kind: k.kind, Arch: k.arch, PHRSize: k.phrSize, Prog: k.prog, Seed: k.seed, Noise: k.noise}
}

// WarmFetcher resolves a warm-state miss from outside the process — the
// cluster worker installs one that asks the coordinator who holds the key
// and pulls the snapshot from that peer. It must return a snapshot whose
// training matches the key exactly (the codec's hash check plus the
// coordinator's index make violations structural, not probabilistic), or
// false to let the caller train locally. Fetchers run outside the cache
// lock and may block on the network; concurrent misses for the same key
// share one fetch.
type WarmFetcher func(key WarmStateKey) (*cpu.Snapshot, bool)

// warmFetch is the installed hook plus its hit/miss accounting.
var (
	warmFetchMu   sync.RWMutex
	warmFetchFn   WarmFetcher
	warmFetchHits atomic.Uint64 // misses resolved by the fetcher
	warmFetchMiss atomic.Uint64 // misses the fetcher could not resolve
)

// SetWarmFetch installs (or, with nil, removes) the process-global warm
// fetch hook. The hook only fires on getOrFetch misses — do never
// fetches, because its entries carry process-local recovery artifacts.
func SetWarmFetch(f WarmFetcher) {
	warmFetchMu.Lock()
	warmFetchFn = f
	warmFetchMu.Unlock()
}

// WarmFetchStats reports how many warm-cache misses the fetch hook
// resolved and how many it passed on.
func WarmFetchStats() (hits, misses uint64) {
	return warmFetchHits.Load(), warmFetchMiss.Load()
}

// getOrFetch is get plus the spill and fetch tiers: on a local miss it
// consults the persistent snapshot store, then the cluster fetcher. A hit
// from either tier is installed in the in-memory cache (so later trials hit
// locally) and — via the spill — a fetched snapshot also lands in the
// store, so peer-trained warm state survives this worker's restart.
// Concurrent local misses of one key share one flight: one store Load and
// at most one fetch, whose outcome every caller gets. On a miss each caller
// still warms its own machine; the flight is kept apart from do's, whose
// waiters expect an entry.
func (c *warmCache) getOrFetch(key warmKey) (*warmEntry, bool) {
	e, call, leader := c.join(key, c.fetching)
	switch {
	case e != nil:
		return e, true
	case !leader:
		<-call.done
		return call.e, call.e != nil
	}
	call.e = loadOrFetch(key)
	c.land(key, call, c.fetching)
	storeSpill(key, call.e)
	return call.e, call.e != nil
}

// loadOrFetch resolves a local miss from the snapshot store, then the
// installed fetcher; nil means neither has the key.
func loadOrFetch(key warmKey) *warmEntry {
	if e, ok := storeLoad(key); ok {
		return e
	}
	warmFetchMu.RLock()
	f := warmFetchFn
	warmFetchMu.RUnlock()
	if f == nil {
		return nil
	}
	snap, ok := f(exportKey(key))
	if !ok || snap == nil {
		warmFetchMiss.Add(1)
		return nil
	}
	warmFetchHits.Add(1)
	return &warmEntry{snap: snap}
}

// WarmSnapshot is one exchangeable warm-cache entry.
type WarmSnapshot struct {
	Key  WarmStateKey
	Snap *cpu.Snapshot
}

// WarmSnapshots lists every exchangeable (rec-free) entry currently in the
// process-global warm cache, most-recently-used first. Cluster workers
// advertise these keys in heartbeats and serve the snapshots to peers.
func WarmSnapshots() []WarmSnapshot {
	warm.mu.Lock()
	defer warm.mu.Unlock()
	out := make([]WarmSnapshot, 0, warm.order.Len())
	for ele := warm.order.Front(); ele != nil; ele = ele.Next() {
		key := ele.Value.(warmKey)
		it := warm.items[key]
		if it.e.rec != nil || it.e.snap == nil {
			continue // phase checkpoints with local artifacts are not exchangeable
		}
		out = append(out, WarmSnapshot{Key: exportKey(key), Snap: it.e.snap})
	}
	return out
}

// LookupWarmSnapshot returns the exchangeable snapshot cached under key,
// if any. Serving a peer's fetch is a read, not a use: it deliberately does
// not touch LRU recency.
func LookupWarmSnapshot(key WarmStateKey) (*cpu.Snapshot, bool) {
	k := key.internal()
	warm.mu.Lock()
	defer warm.mu.Unlock()
	it, ok := warm.items[k]
	if !ok || it.e.rec != nil || it.e.snap == nil {
		return nil, false
	}
	return it.e.snap, true
}

// InstallWarmSnapshot stores a fetched snapshot under key (first writer
// wins), making it available to subsequent trials and to peers.
func InstallWarmSnapshot(key WarmStateKey, snap *cpu.Snapshot) {
	if snap == nil {
		return
	}
	warm.putIfAbsent(key.internal(), &warmEntry{snap: snap})
}

// WarmCacheStats exposes the process-global warm cache's hit/miss counters
// — cluster workers surface them on /metrics, where "warm hits with zero
// training" is the observable proof that affinity routing worked.
func WarmCacheStats() (hits, misses uint64) {
	return warm.stats()
}

// ResetWarmFetchStats zeroes the fetch counters — test isolation only.
func ResetWarmFetchStats() {
	warmFetchHits.Store(0)
	warmFetchMiss.Store(0)
}

// ResetWarmCache empties the process-global warm cache and zeroes its
// counters — test and benchmark isolation only. In-process cluster
// benchmarks share one warm cache across every simulated node; resetting
// between phases keeps a later phase from inheriting the earlier phase's
// training.
func ResetWarmCache() {
	warm.reset()
}
