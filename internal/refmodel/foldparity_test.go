package refmodel

import (
	"testing"

	"pathfinder/internal/phr"
)

// TestFoldCacheRefModelParity replays >100k random taken branches through
// the production packed register (whose Fold and FoldMix stream its packed
// words) and the naive reference PHR side by side, comparing every Table 1
// fold after every branch. The production register is additionally churned
// with exact ReverseUpdate/Update undo-redo pairs and occasional SetDoublet
// writes mirrored to the reference — both exercise the word-level reverse
// shift and the structural writers while keeping the two histories equal.
func TestFoldCacheRefModelParity(t *testing.T) {
	type win struct{ histLen, width int }
	for _, cfg := range []struct {
		size int
		wins []win
	}{
		{194, []win{{34, 8}, {66, 8}, {194, 8}, {194, 16}, {34, 12}, {66, 12}, {194, 12}}},
		{93, []win{{24, 8}, {46, 8}, {93, 8}, {93, 16}}},
	} {
		prod := phr.New(cfg.size)
		ref := NewPHR(cfg.size)
		rng := uint64(0xfeed + cfg.size)
		next := func() uint64 {
			rng += 0x9e3779b97f4a7c15
			z := rng
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return z ^ z>>31
		}
		steps := 110000 / len(cfg.wins)
		if testing.Short() {
			steps = 5000
		}
		for step := 0; step < steps; step++ {
			br, tgt := next(), next()
			switch step % 50 {
			case 17:
				// Structural write, mirrored on both sides.
				i := int(next() % uint64(cfg.size))
				v := phr.Doublet(next()) & 3
				prod.SetDoublet(i, v)
				ref.SetDoublet(i, v)
			case 33:
				// Exact undo-redo churn on the production register only:
				// net identity, but it runs the reverse update.
				fp := phr.Footprint(br, tgt)
				top := prod.Doublet(cfg.size - 1)
				prod.Update(fp)
				_ = prod.Fold(cfg.wins[0].histLen, cfg.wins[0].width)
				prod.ReverseUpdate(fp, top)
			default:
				prod.UpdateBranch(br, tgt)
				ref.UpdateBranch(br, tgt)
			}
			for _, w := range cfg.wins {
				if got, want := prod.Fold(w.histLen, w.width), ref.Fold(w.histLen, w.width); got != want {
					t.Fatalf("size=%d step=%d Fold(%d,%d): production %#x, refmodel %#x",
						cfg.size, step, w.histLen, w.width, got, want)
				}
				if got, want := prod.FoldMix(w.histLen, w.width), ref.FoldMix(w.histLen, w.width); got != want {
					t.Fatalf("size=%d step=%d FoldMix(%d,%d): production %#x, refmodel %#x",
						cfg.size, step, w.histLen, w.width, got, want)
				}
			}
		}
	}
}
