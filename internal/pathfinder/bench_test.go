package pathfinder_test

import (
	"testing"

	"pathfinder/internal/cpu"
	"pathfinder/internal/victim"
)

// BenchmarkSearchDAG times one backward search of the §8 image-recovery
// workload: the IDCT victim decoding test-set image qr-2 (16 px, JPEG
// quality 60), its PHR window captured on a machine with seed 1, searched
// with the lookahead Extended Read PHR starts from (MaxReversals = the
// window size).
func BenchmarkSearchDAG(b *testing.B) {
	blocks := idctBlocks(b)
	cfg, spec, _ := captureCase(b, cpu.New(cpu.Options{Seed: 1}), victim.IDCTVictim(len(blocks), blocks))
	spec.MaxReversals = spec.Observed.Size()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.SearchDAG(spec); err != nil {
			b.Fatal(err)
		}
	}
}
