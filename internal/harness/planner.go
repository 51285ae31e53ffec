package harness

import (
	"context"
	"fmt"
	"sync/atomic"
)

// The sweep runner: a sweep — arch × seed grids, noise-intensity ladders —
// is a list of cells whose expensive training prefix (the phase-level
// warm-cache entry, e.g. the AES phase-1 control-flow recovery) may be
// shared between cells. Cells run in input order; consecutive cells with
// one prefix form a run, and the first cell of a run trains its prefix (or
// restores it from the persistent snapshot store) while the rest fork from
// the cached checkpoint. While one run executes, the next run's prefix is
// prefetched from the store in the background, so the disk read and wire
// decode overlap the current run's simulation instead of serializing in
// front of it.
//
// The runner never touches results: cells are required to be independent
// (each writes its own slot; the caller assembles the report in cell-index
// order), and all sharing flows through the warm cache's content-addressed
// contract, so reports stay byte-identical with the prefetch hitting,
// missing, or the store absent.

// SweepCell is one point of a sweep grid. Prefix is the content address of
// the cell's expensive training prefix — the warm-cache key its driver will
// compute under — or the zero key when the cell shares nothing. Run
// executes the cell; it must write its result into caller-owned storage
// keyed by cell identity, never by execution order.
type SweepCell struct {
	Label  string
	Prefix WarmStateKey
	Run    func(ctx context.Context) error
}

// Sweep accounting, process-global like the warm cache it drives.
var (
	plannerGroups         atomic.Uint64 // prefix runs executed
	plannerCells          atomic.Uint64 // cells executed
	plannerSharedCells    atomic.Uint64 // cells that reused their run's prefix
	plannerPrefetchHits   atomic.Uint64 // background store prefetches that installed an entry
	plannerPrefetchMisses atomic.Uint64 // background prefetches the store could not serve
)

// PlannerStats reports cumulative sweep counters: executed prefix runs
// (groups) and cells, cells that rode an earlier cell's prefix training in
// the same run, and background store-prefetch outcomes. Surfaced on the
// daemon's /metrics.
func PlannerStats() (groups, cells, shared, prefetchHits, prefetchMisses uint64) {
	return plannerGroups.Load(), plannerCells.Load(), plannerSharedCells.Load(),
		plannerPrefetchHits.Load(), plannerPrefetchMisses.Load()
}

// ResetPlannerStats zeroes the sweep counters — test and benchmark
// isolation only.
func ResetPlannerStats() {
	plannerGroups.Store(0)
	plannerCells.Store(0)
	plannerSharedCells.Store(0)
	plannerPrefetchHits.Store(0)
	plannerPrefetchMisses.Store(0)
}

// prefetchPrefix pulls key's entry from the persistent store into the warm
// cache in the background, returning a channel closed when done. It is
// purely an optimization: a miss just means the run's first cell consults
// the store (or trains) itself.
func prefetchPrefix(key WarmStateKey) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		k := key.internal()
		if _, ok := warm.get(k); ok {
			return // already resident; nothing to overlap
		}
		if e, ok := storeLoad(k); ok {
			warm.putIfAbsent(k, e)
			plannerPrefetchHits.Add(1)
		} else {
			plannerPrefetchMisses.Add(1)
		}
	}()
	return done
}

// RunSweep executes cells in input order. Each run of consecutive cells
// with one non-zero prefix counts as a group, and a zero-prefix cell is a
// group of its own; while a group executes, the next group's prefix is
// prefetched from the persistent store (depth-1 pipeline). Cell
// parallelism lives inside each cell's driver (its trial runner); the
// sweep itself is sequential over cells.
func RunSweep(ctx context.Context, cells []SweepCell) error {
	storeOn := InstalledSnapStore() != nil
	var next <-chan struct{}
	defer func() { drain(next) }()
	for i, cell := range cells {
		if err := ctx.Err(); err != nil {
			return err
		}
		shared := i > 0 && sameRun(cells[i-1], cell)
		if !shared {
			drain(next) // this group's prefix prefetch, started last group
			next = nil
			if j := nextRun(cells, i); storeOn && j < len(cells) && cells[j].Prefix != (WarmStateKey{}) {
				next = prefetchPrefix(cells[j].Prefix)
			}
			plannerGroups.Add(1)
		}
		if err := cell.Run(ctx); err != nil {
			if cell.Label != "" {
				return fmt.Errorf("harness: sweep cell %s: %w", cell.Label, err)
			}
			return err
		}
		plannerCells.Add(1)
		if shared {
			plannerSharedCells.Add(1)
		}
	}
	return ctx.Err()
}

// sameRun reports whether b continues a's prefix run.
func sameRun(a, b SweepCell) bool {
	return b.Prefix != (WarmStateKey{}) && b.Prefix == a.Prefix
}

// nextRun returns the index of the first cell after i's run.
func nextRun(cells []SweepCell, i int) int {
	j := i + 1
	for j < len(cells) && sameRun(cells[j-1], cells[j]) {
		j++
	}
	return j
}

func drain(ch <-chan struct{}) {
	if ch != nil {
		<-ch
	}
}
