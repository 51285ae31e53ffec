package pathfinder

import "testing"

// SmallIndex starts the index of every search at 4 slots until tb ends, so
// that searches of a few states already rehash it and drop finished depths.
// Tests that call it must not run in parallel with other searches.
func SmallIndex(tb testing.TB) {
	old := indexSlots
	indexSlots = 4
	tb.Cleanup(func() { indexSlots = old })
}
