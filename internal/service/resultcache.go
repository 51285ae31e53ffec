package service

import (
	"container/list"
	"encoding/json"
	"sync"

	"pathfinder/internal/cpu"
)

// The result cache: every experiment driver is a deterministic function of
// its resolved parameters, so a finished job's marshaled result can serve
// any later job with the same canonical (experiment, params) key without
// re-simulating. A bounded LRU holds the results; an in-flight table
// deduplicates concurrent identical jobs onto one computation
// (singleflight). Journal replay repopulates the cache on startup, so a
// restarted daemon keeps its warm results.
//
// Only clean successes are cached. Failures, timeouts and cancellations are
// never stored — the next identical job runs for real — and a follower
// whose leader fails falls back to running the experiment itself.

// resultKey is the canonical content address of one job's work.
type resultKey struct {
	experiment string
	params     string // re-marshaled resolved-Params JSON
}

// resultKeyFor canonicalizes a job's identity. Registry.Resolve has already
// filled every defaulted field, and Go marshals struct fields in
// declaration order, so the JSON is a stable content address: two
// submissions that resolve to the same work produce the same key even when
// one spelled a default out and the other omitted it.
func resultKeyFor(experiment string, p Params) (resultKey, bool) {
	// Microarchitecture aliases ("", "alderlake", "Alder Lake") resolve to
	// one config; canonicalize to its Name so aliased submissions share an
	// entry. Unknown names never get here — Resolve rejected them at
	// submission.
	if cfg, err := ArchConfig(p.Arch); err == nil {
		p.Arch = cfg.Name
	}
	b, err := json.Marshal(p)
	if err != nil {
		return resultKey{}, false
	}
	return resultKey{experiment: experiment, params: string(b)}, true
}

// resultEntry is one cached outcome: the marshaled result plus the
// simulator counters the producing run accumulated (served verbatim, so a
// cache hit reports the same sim_stats the original job did).
type resultEntry struct {
	result json.RawMessage
	stats  cpu.Counters
}

// resultFlight is one in-flight computation; followers wait on done. entry
// stays nil when the leader did not produce a cacheable success.
type resultFlight struct {
	done  chan struct{}
	entry *resultEntry
}

// resultCache is the bounded LRU plus the singleflight table.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // most-recent first; values are resultKey
	items    map[resultKey]*resultItem
	inflight map[resultKey]*resultFlight
}

type resultItem struct {
	e   *resultEntry
	ele *list.Element
}

// newResultCache builds a cache bounded to capacity entries; capacity <= 0
// returns nil, the disabled cache.
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[resultKey]*resultItem),
		inflight: make(map[resultKey]*resultFlight),
	}
}

// put stores e under key (first writer wins), evicting the
// least-recently-used entry when over capacity.
func (c *resultCache) put(key resultKey, e *resultEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeLocked(key, e)
}

func (c *resultCache) storeLocked(key resultKey, e *resultEntry) {
	if it, ok := c.items[key]; ok {
		// First writer wins on content (identical by determinism), but a
		// duplicate store is still a use: refresh recency, so the LRU order
		// — and therefore the eviction sequence — is a deterministic
		// function of the store/hit history alone.
		c.order.MoveToFront(it.ele)
		return
	}
	c.items[key] = &resultItem{e: e, ele: c.order.PushFront(key)}
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(resultKey))
	}
}

// begin returns key's cached entry on a hit, marking it most-recently
// used. On a miss it joins or opens the singleflight for key: the first
// caller becomes the leader (leader == true) and must call finish; later
// callers get the existing flight to wait on. The lookup and the join share
// one lock, so a job cannot miss the cache and then lead a second run of
// work an identical leader has just stored.
func (c *resultCache) begin(key resultKey) (e *resultEntry, f *resultFlight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it, ok := c.items[key]; ok {
		c.order.MoveToFront(it.ele)
		return it.e, nil, false
	}
	if f, ok := c.inflight[key]; ok {
		return nil, f, false
	}
	f = &resultFlight{done: make(chan struct{})}
	c.inflight[key] = f
	return nil, f, true
}

// finish closes the leader's flight, caching e when non-nil and releasing
// every waiting follower.
func (c *resultCache) finish(key resultKey, f *resultFlight, e *resultEntry) {
	c.mu.Lock()
	delete(c.inflight, key)
	if e != nil {
		c.storeLocked(key, e)
	}
	c.mu.Unlock()
	f.entry = e
	close(f.done)
}

// len reports the number of cached entries, for the metrics gauge.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
