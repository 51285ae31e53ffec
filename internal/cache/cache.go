// Package cache models a set-associative data cache with the four
// properties the Spectre-style leakage in §9 of the Pathfinder paper
// requires: flushing a line (CLFLUSH), a measurable latency gap between
// hits and misses, state changes on transient loads, and persistence of
// that state across a pipeline squash.
//
// The default geometry is a 4 MiB, 16-way, 64-byte-line LLC-style cache
// backed by a flat-latency memory — Flush+Reload operates on the last-level
// cache, and the page-strided probe slots must land in distinct sets.
// Latencies are in model cycles.
package cache

import "math/bits"

// Geometry and latency defaults.
const (
	LineSize    = 64
	DefaultSets = 4096
	DefaultWays = 16

	HitLatency  = 4
	MissLatency = 300
)

// line packs one way into 16 bytes: key is the line address plus one, so
// zero means invalid and a lookup is a single comparison. The probe loops
// of the Flush+Reload attacks scan full sets far more often than they hit,
// making set-scan density the cache model's hottest property.
type line struct {
	key uint64 // line address + 1; 0 = invalid
	lru uint64
}

// Cache is a single-level set-associative cache. The zero value is not
// usable; call New.
type Cache struct {
	sets    [][]line
	setMask uint64
	ways    int
	tick    uint64

	hits, misses, flushes uint64

	// dirty holds one bit per set, raised whenever any line or LRU stamp in
	// that set may have changed. The bits are a conservative superset of
	// sets that differ from the last state this cache was restored to;
	// RestoreDirty copies only those sets and clears the bits. A trial's
	// footprint is a few dozen sets out of 4096, so this is what makes warm
	// restore proportional to work done instead of cache geometry.
	dirty []uint64

	// occupied holds one bit per set, raised when a miss fills a line there:
	// a conservative superset of the sets holding valid lines. Save, Reset,
	// FlushAll and a full Restore visit only these sets, so they cost the
	// lines the cache holds, not its geometry.
	occupied []uint64
}

// New returns an empty cache with the given geometry. sets must be a power
// of two.
func New(sets, ways int) *Cache {
	if sets <= 0 || sets&(sets-1) != 0 || ways <= 0 {
		panic("cache: bad geometry")
	}
	words := (sets + 63) / 64
	setBits := make([]uint64, 2*words) // dirty, then occupied
	c := &Cache{
		sets:     make([][]line, sets),
		setMask:  uint64(sets - 1),
		ways:     ways,
		dirty:    setBits[:words:words],
		occupied: setBits[words:],
	}
	backing := make([]line, sets*ways)
	for i := range c.sets {
		c.sets[i] = backing[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return c
}

// markDirty raises the dirty bit for set index si.
func (c *Cache) markDirty(si uint64) {
	c.dirty[si>>6] |= 1 << (si & 63)
}

// markOccupied raises the occupied bit for set index si.
func (c *Cache) markOccupied(si uint64) {
	c.occupied[si>>6] |= 1 << (si & 63)
}

// forEachSet calls fn, in ascending order, with the index of every set
// whose bit is raised in a per-set bitmap (dirty or occupied).
func forEachSet(bitmap []uint64, fn func(si int)) {
	for wi, w := range bitmap {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// NewDefault returns the default cache: 4 MiB of modelled capacity (4096
// sets × 16 ways × 64-byte lines), held as 1 MiB of 16-byte line records.
func NewDefault() *Cache { return New(DefaultSets, DefaultWays) }

func (c *Cache) locate(addr uint64) (set []line, key uint64) {
	lineAddr := addr / LineSize
	return c.sets[lineAddr&c.setMask], lineAddr + 1
}

// Access touches addr, returning the access latency in cycles and whether
// it hit. Misses allocate the line with LRU replacement.
func (c *Cache) Access(addr uint64) (latency int, hit bool) {
	c.tick++
	si := (addr / LineSize) & c.setMask
	c.markDirty(si) // hits move LRU stamps too
	set, key := c.locate(addr)
	for i := range set {
		if set[i].key == key {
			set[i].lru = c.tick
			c.hits++
			return HitLatency, true
		}
	}
	c.misses++
	victim := 0
	for i := range set {
		if set[i].key == 0 {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = line{key: key, lru: c.tick}
	c.markOccupied(si)
	return MissLatency, false
}

// Contains reports whether addr's line is cached, without touching LRU
// state. An access's latency here is a function of presence alone
// (HitLatency or MissLatency, with no timing noise), so presence is exactly
// what a timed reload would read; the §9 probe decode reads it this way so
// that the readout itself fills no line and moves no LRU stamp.
func (c *Cache) Contains(addr uint64) bool {
	set, key := c.locate(addr)
	for i := range set {
		if set[i].key == key {
			return true
		}
	}
	return false
}

// Flush evicts addr's line if present (CLFLUSH).
func (c *Cache) Flush(addr uint64) {
	c.flushes++
	c.markDirty((addr / LineSize) & c.setMask)
	set, key := c.locate(addr)
	for i := range set {
		if set[i].key == key {
			set[i] = line{}
		}
	}
}

// The strided operations act on n slots at base + i·stride, i in [0, n),
// where stride is a positive multiple of LineSize and the slots do not wrap
// the address space: the layout of a Flush+Reload probe array. Slot i is
// line base/LineSize + i·(stride/LineSize), and slots i and i+P share a set,
// where P = sets / gcd(stride/LineSize, sets). So the operations visit the
// sets of slots [0, min(n, P)) once each and match every way against the
// array, instead of locating and scanning one set per slot: the 4 KiB-strided
// 16 × 256 AES probe array falls into 64 of the default 4096 sets.

// strided checks the layout and returns the first slot's line, the stride
// and the array's extent in lines, and how many leading slots to visit.
func (c *Cache) strided(base, stride uint64, n int) (baseLine, lines, span uint64, visit int) {
	if stride == 0 || stride%LineSize != 0 || n < 0 {
		panic("cache: strided slots need a positive line-multiple stride and n >= 0")
	}
	lines = stride / LineSize
	sets := uint64(len(c.sets))
	gcd := min(uint64(1)<<bits.TrailingZeros64(lines), sets) // sets is a power of two
	return base / LineSize, lines, uint64(n) * lines, min(n, int(sets/gcd))
}

// slotOf reports which slot of a strided array a way's key holds: the line
// lies d lines past the first slot, and it is slot d/lines when d is a
// multiple of the stride inside the array's extent.
func slotOf(key, baseLine, lines, span uint64) (uint64, bool) {
	d := key - 1 - baseLine
	if key == 0 || key-1 < baseLine || d >= span || d%lines != 0 {
		return 0, false
	}
	return d / lines, true
}

// FlushStrided evicts the n strided slots with exactly the effects of n
// Flush calls: flushes grows by n, the dirty bit of every set a slot maps to
// is raised, and no LRU stamp or clock value moves.
func (c *Cache) FlushStrided(base, stride uint64, n int) {
	baseLine, lines, span, visit := c.strided(base, stride, n)
	c.flushes += uint64(n)
	for i := 0; i < visit; i++ {
		si := (baseLine + uint64(i)*lines) & c.setMask
		c.markDirty(si)
		set := c.sets[si]
		for w := range set {
			if _, ok := slotOf(set[w].key, baseLine, lines, span); ok {
				set[w] = line{}
			}
		}
	}
}

// ResidentStrided overwrites hits[:(n+63)/64] with one bit per strided
// slot, bit i set when slot i is cached: what n Contains calls report, and
// like Contains it writes nothing to the cache.
func (c *Cache) ResidentStrided(base, stride uint64, n int, hits []uint64) {
	baseLine, lines, span, visit := c.strided(base, stride, n)
	clear(hits[:(n+63)/64])
	for i := 0; i < visit; i++ {
		for _, l := range c.sets[(baseLine+uint64(i)*lines)&c.setMask] {
			if s, ok := slotOf(l.key, baseLine, lines, span); ok {
				hits[s>>6] |= 1 << (s & 63)
			}
		}
	}
}

// EvictNth invalidates one pseudo-randomly selected line: r's low bits pick
// the set, its high bits pick the way. It models co-resident cache pressure
// for the fault-injection layer — unlike Flush it needs no address, and it
// counts as a flush in the stats. Empty ways are a no-op, matching real
// eviction pressure landing on an invalid line.
func (c *Cache) EvictNth(r uint64) {
	c.flushes++
	c.markDirty(r & c.setMask)
	set := c.sets[r&c.setMask]
	set[(r>>32)%uint64(c.ways)] = line{}
}

// FlushAll empties the cache. Only occupied sets can hold lines, so only
// they are cleared and marked dirty; every other set is already empty and
// stays as it was.
func (c *Cache) FlushAll() {
	forEachSet(c.occupied, func(si int) {
		c.markDirty(uint64(si))
		clear(c.sets[si])
	})
	clear(c.occupied)
}

// Reset returns the cache to its as-built state: every line invalid and
// all counters (including the LRU clock) zero. Machine recycling uses it;
// attacks use Flush/FlushAll, which leave the counters alone.
func (c *Cache) Reset() {
	c.FlushAll()
	c.tick, c.hits, c.misses, c.flushes = 0, 0, 0, 0
}

// Stats returns cumulative hit/miss/flush counts.
func (c *Cache) Stats() (hits, misses, flushes uint64) {
	return c.hits, c.misses, c.flushes
}

// ProbeStride is the spacing of Flush+Reload probe slots: one page per
// possible byte value, defeating adjacent-line prefetching exactly as the
// 256-page array in §9 does.
const ProbeStride = 4096

// ProbeArray is a Flush+Reload covert-channel receiver over a 256-slot,
// page-strided array starting at Base. The transmitter (the victim's
// transient gadget) accesses Base + value*ProbeStride; the receiver times
// a reload of every slot and takes hits as transmitted values.
type ProbeArray struct {
	Base  uint64
	cache *Cache
}

// NewProbeArray binds a probe array at base to the cache shared with the
// victim.
func NewProbeArray(c *Cache, base uint64) *ProbeArray {
	return &ProbeArray{Base: base, cache: c}
}

// SlotAddr returns the address encoding a byte value.
func (p *ProbeArray) SlotAddr(value byte) uint64 {
	return p.Base + uint64(value)*ProbeStride
}

// Flush evicts all 256 slots (the Flush phase).
func (p *ProbeArray) Flush() {
	p.cache.FlushStrided(p.Base, ProbeStride, 256)
}

// Reload times all 256 slots and returns the values whose slots hit (the
// Reload phase). Typically zero or one value per transmission.
func (p *ProbeArray) Reload() []byte {
	var got []byte
	for v := 0; v < 256; v++ {
		if lat, _ := p.cache.Access(p.SlotAddr(byte(v))); lat <= HitLatency {
			got = append(got, byte(v))
		}
	}
	return got
}

// ReloadOne returns the single hit value, or ok=false when zero or multiple
// slots hit (a corrupted transmission).
func (p *ProbeArray) ReloadOne() (byte, bool) {
	got := p.Reload()
	if len(got) == 1 {
		return got[0], true
	}
	return 0, false
}
