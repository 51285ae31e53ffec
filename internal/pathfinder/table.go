package pathfinder

// table indexes a search's stored states by their packed keys (keyOf): an
// open-addressing hash table with linear probing, at most half full. A
// slot holds the key itself, so a rehash re-places entries from their
// slots without reading the node arena, and the hash is a fixed mixer with
// no per-process seed, so a search probes and allocates the same way in
// every run. Key 0 marks an empty slot and is never stored.
type table struct {
	slots []slot // a power of two of them
	used  int
	// spare is the slice the last rehash moved the keys out of, when it had
	// the size of the new one: the next rehash to that size reuses it.
	spare []slot
}

type slot struct {
	key uint64
	id  NodeID
}

// newTable returns an empty table of n slots, n a power of two.
func newTable(n int) table { return table{slots: make([]slot, n)} }

// mix is the 64-bit finalizer of MurmurHash3.
func mix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// depthOf returns the reversal count packed into key.
func depthOf(key uint64) int32 { return int32(key>>deltaBits) & (1<<depthBits - 1) }

// find returns the NodeID stored under key and its slot, or NoNode and the
// empty slot where put must then store key.
func (t *table) find(key uint64) (NodeID, int) {
	mask := len(t.slots) - 1
	for i := int(mix(key)) & mask; ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return t.slots[i].id, i
		case 0:
			return NoNode, i
		}
	}
}

// put stores id under key in slot i, the empty slot find returned for key,
// and reports whether more than half the slots are now used, in which case
// the table must be rehashed before the next find.
func (t *table) put(i int, key uint64, id NodeID) bool {
	t.slots[i] = slot{key: key, id: id}
	t.used++
	return 2*t.used > len(t.slots)
}

// rehash drops every key below depth floor and re-places the rest in a
// table at most a third full: the smallest power of two, and at least 4,
// of no fewer than three slots per kept key.
func (t *table) rehash(floor int32) {
	kept := 0
	for _, sl := range t.slots {
		if sl.key != 0 && depthOf(sl.key) >= floor {
			kept++
		}
	}
	n := 4
	for n < 3*kept {
		n *= 2
	}
	old := t.slots
	if len(t.spare) == n {
		t.slots = t.spare
		clear(t.slots)
	} else {
		t.slots = make([]slot, n)
	}
	t.spare = nil
	if len(old) == n {
		t.spare = old
	}
	mask := n - 1
	for _, sl := range old {
		if sl.key == 0 || depthOf(sl.key) < floor {
			continue
		}
		j := int(mix(sl.key)) & mask
		for t.slots[j].key != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = sl
	}
	t.used = kept
}
