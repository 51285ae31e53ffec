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

// insert puts keys[i] into tab under NodeID i, rehashing tab without
// dropping a key whenever put reports it more than half full, and fails t
// if a key is already there.
func insert(t *testing.T, tab *table, keys []uint64) {
	t.Helper()
	for i, k := range keys {
		id, slot := tab.find(k)
		if id != NoNode {
			t.Fatalf("key %#x found as %d before insertion", k, id)
		}
		if tab.put(slot, k, NodeID(i)) {
			tab.rehash(0)
		}
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

// rehashSize is the size rule of rehash: the smallest power of two, at
// least 4, of no fewer than three slots per kept key.
func rehashSize(kept int) int {
	n := 4
	for n < 3*kept {
		n *= 2
	}
	return n
}

func TestDepthOf(t *testing.T) {
	for _, r := range []int32{0, 1, 194, 1<<depthBits - 1} {
		for _, delta := range []uint16{0, 1<<deltaBits - 1} {
			if got := depthOf(keyOf(1<<31-1, r, delta)); got != r {
				t.Fatalf("depthOf(keyOf(_, %d, %#x)) = %d", r, delta, got)
			}
		}
	}
}

// TestTableRehashFloor fills a table with 50 keys at each of depths 0 to 9
// and rehashes it at floors 0 to 10 in turn: after each, the keys at or
// above the floor find their ids, the keys below it are gone, and the
// table has the size rehashSize gives for the keys kept.
func TestTableRehashFloor(t *testing.T) {
	const depths, perDepth = 10, 50
	var keys []uint64
	for r := int32(0); r < depths; r++ {
		for i := int32(0); i < perDepth; i++ {
			keys = append(keys, keyOf(7*i, r, uint16(31*i)&(1<<deltaBits-1)))
		}
	}
	tab := newTable(4)
	insert(t, &tab, keys)
	for floor := int32(0); floor <= depths; floor++ {
		tab.rehash(floor)
		kept := perDepth * int(depths-floor)
		if tab.used != kept || len(tab.slots) != rehashSize(kept) {
			t.Fatalf("floor %d: %d keys in %d slots, want %d in %d", floor, tab.used, len(tab.slots), kept, rehashSize(kept))
		}
		for i, k := range keys {
			id, slot := tab.find(k)
			switch {
			case depthOf(k) >= floor && (id != NodeID(i) || tab.slots[slot].key != k):
				t.Fatalf("floor %d: key %#x at depth %d finds %d in slot %d, want %d", floor, k, depthOf(k), id, slot, i)
			case depthOf(k) < floor && (id != NoNode || tab.slots[slot].key != 0):
				t.Fatalf("floor %d: dropped key %#x at depth %d finds %d in slot %d", floor, k, depthOf(k), id, slot)
			}
		}
	}
}

// TestTableRehashReusesSpare checks that a rehash which keeps the table's
// size moves the keys into the slice the previous one left, allocating
// nothing.
func TestTableRehashReusesSpare(t *testing.T) {
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = keyOf(int32(i), 5, 0)
	}
	tab := newTable(4)
	insert(t, &tab, keys)
	tab.rehash(0)
	if allocs := testing.AllocsPerRun(10, func() { tab.rehash(0) }); allocs != 0 {
		t.Fatalf("a same-size rehash made %v allocations, want 0", allocs)
	}
	if len(tab.slots) != rehashSize(len(keys)) || len(tab.spare) != len(tab.slots) {
		t.Fatalf("%d slots with a spare of %d, want %d and %d", len(tab.slots), len(tab.spare), rehashSize(len(keys)), rehashSize(len(keys)))
	}
	checkTable(t, &tab, keys, []uint64{keyOf(0, 4, 0), keyOf(100, 5, 0)})
}
