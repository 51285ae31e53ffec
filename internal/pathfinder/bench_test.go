package pathfinder_test

import (
	"runtime"
	"testing"

	"pathfinder/internal/cpu"
	"pathfinder/internal/pathfinder"
	"pathfinder/internal/victim"
)

// imageSearchCase returns the §8 image-recovery workload's heaviest search:
// the IDCT victim decoding test-set image qr-2 (16 px, JPEG quality 60), its
// PHR window captured on a machine with seed 1, searched with the lookahead
// Extended Read PHR starts from (MaxReversals = the window size).
func imageSearchCase(tb testing.TB) (*pathfinder.CFG, pathfinder.Spec) {
	tb.Helper()
	blocks := idctBlocks(tb)
	cfg, spec, _ := captureCase(tb, cpu.New(cpu.Options{Seed: 1}), victim.IDCTVictim(len(blocks), blocks))
	spec.MaxReversals = spec.Observed.Size()
	return cfg, spec
}

// BenchmarkSearchDAG times one backward search of imageSearchCase.
func BenchmarkSearchDAG(b *testing.B) {
	cfg, spec := imageSearchCase(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.SearchDAG(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSearchDAGMemory bounds what one search of imageSearchCase allocates.
// The bound lies between the 112 MB it allocates and the 219 MB it did when
// the search kept its whole index and queue to the end and stored its edges
// as 40-byte Edges.
func TestSearchDAGMemory(t *testing.T) {
	const maxMB = 150
	cfg, spec := imageSearchCase(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := cfg.SearchDAG(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > maxMB {
		t.Fatalf("one search allocated %.1f MB, more than %d MB", mb, maxMB)
	}
}
