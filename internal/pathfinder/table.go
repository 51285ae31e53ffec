package pathfinder

// table indexes a search's stored states by their packed keys (keyOf): an
// open-addressing hash table with linear probing, at most half full. A
// slot holds the key itself, so growth re-places every entry from its slot
// without reading the node arena, and the hash is a fixed mixer with no
// per-process seed, so a search probes and allocates the same way in every
// run. Key 0 marks an empty slot and is never stored.
type table struct {
	slots []slot // a power of two of them
	used  int
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
// and doubles the table once more than half its slots are used.
func (t *table) put(i int, key uint64, id NodeID) {
	t.slots[i] = slot{key: key, id: id}
	t.used++
	if 2*t.used <= len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]slot, 2*len(old))
	mask := len(t.slots) - 1
	for _, sl := range old {
		if sl.key == 0 {
			continue
		}
		j := int(mix(sl.key)) & mask
		for t.slots[j].key != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = sl
	}
}
