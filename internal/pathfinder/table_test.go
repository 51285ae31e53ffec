package pathfinder

import "testing"

// keysHomedAt returns n distinct keys whose home slot in a table of size
// slots is home, found by brute force over the mixer.
func keysHomedAt(t *testing.T, size, home, n int) []uint64 {
	t.Helper()
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if k > 1<<20 {
			t.Fatalf("found only %d keys homed at slot %d of %d", len(keys), home, size)
		}
		if int(mix(k))&(size-1) == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// insert puts keys[i] into tab under NodeID i, failing t if a key is
// already there.
func insert(t *testing.T, tab *table, keys []uint64) {
	t.Helper()
	for i, k := range keys {
		id, slot := tab.find(k)
		if id != NoNode {
			t.Fatalf("key %#x found as %d before insertion", k, id)
		}
		tab.put(slot, k, NodeID(i))
	}
}

// checkTable fails t unless every keys[i] finds NodeID i and every absent
// key finds NoNode at an empty slot.
func checkTable(t *testing.T, tab *table, keys, absent []uint64) {
	t.Helper()
	for i, k := range keys {
		if id, slot := tab.find(k); id != NodeID(i) || tab.slots[slot].key != k {
			t.Fatalf("key %#x finds %d in slot %d, want %d", k, id, slot, i)
		}
	}
	for _, k := range absent {
		if id, slot := tab.find(k); id != NoNode || tab.slots[slot].key != 0 {
			t.Fatalf("absent key %#x finds %d in slot %d holding %#x", k, id, slot, tab.slots[slot].key)
		}
	}
}

func TestTableSharedHomeSlot(t *testing.T) {
	const size, home = 16, 5
	keys := keysHomedAt(t, size, home, 6)
	tab := newTable(size)
	insert(t, &tab, keys[:5])
	if len(tab.slots) != size {
		t.Fatalf("table grew to %d slots at %d of %d used", len(tab.slots), tab.used, size)
	}
	for i := range keys[:5] {
		if got := tab.slots[home+i].key; got != keys[i] {
			t.Fatalf("slot %d holds %#x, want the probe chain's key %d %#x", home+i, got, i, keys[i])
		}
	}
	checkTable(t, &tab, keys[:5], keys[5:])
}

func TestTableProbeChainWraps(t *testing.T) {
	const size = 16
	keys := keysHomedAt(t, size, size-1, 5)
	tab := newTable(size)
	insert(t, &tab, keys[:4])
	for i, want := range []int{size - 1, 0, 1, 2} {
		if got := tab.slots[want].key; got != keys[i] {
			t.Fatalf("slot %d holds %#x, want key %d %#x", want, got, i, keys[i])
		}
	}
	checkTable(t, &tab, keys[:4], keys[4:])
}

func TestTableGrowth(t *testing.T) {
	const n = 5000
	var keys, absent []uint64
	for i := int32(0); i < 2*n; i++ {
		k := keyOf(i%97, i/97, uint16(i*31)&(1<<deltaBits-1))
		if i%2 == 0 {
			keys = append(keys, k)
		} else {
			absent = append(absent, k)
		}
	}
	tab := newTable(4)
	insert(t, &tab, keys)
	if tab.used != n || len(tab.slots) != 16384 {
		t.Fatalf("%d keys used %d of %d slots, want %d of 16384", n, tab.used, len(tab.slots), n)
	}
	checkTable(t, &tab, keys, absent)
}
