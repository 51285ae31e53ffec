package harness

import (
	"context"
	"sync"
	"sync/atomic"

	"pathfinder/internal/cpu"
)

// batchPool recycles cpu.Batch lane groups across the trial groups of one
// sharded driver call. A worker that claims a group of BatchSize consecutive
// trial indices checks out one batch, runs trial lo+j on lane j (recycling
// the lane to the trial's options), and returns the batch when the group is
// done, so the steady state allocates nothing and all K lanes' hot state
// (PHRs, harts, machine headers) stays in the shared
// structure-of-arrays arenas cpu.NewBatch lays out.
//
// Pooling is disabled when the driver runs on the refmodel oracle — a custom
// predictor's state cannot be reset generically — in which case get returns
// nil and lane simply builds fresh machines.
//
// Reuse never weakens the determinism contract: a recycled lane is
// observationally identical to a fresh machine, and lanes share no state, so
// which batch (and which lane) serves a trial cannot influence its outcome.
// The golden, Parallelism-invariance and BatchSize-invariance tests pin that
// equivalence end to end.
type batchPool struct {
	disabled bool
	k        int
	pool     sync.Pool
}

// get checks out a K-lane batch, or returns nil when pooling is disabled.
func (p *batchPool) get(co cpu.Options) *cpu.Batch {
	if p.disabled {
		return nil
	}
	if v := p.pool.Get(); v != nil {
		return v.(*cpu.Batch)
	}
	return cpu.NewBatch(co, p.k)
}

// put returns a batch checked out by get.
func (p *batchPool) put(b *cpu.Batch) {
	if b != nil {
		p.pool.Put(b)
	}
}

// lane hands out lane j of b recycled to co — or a fresh machine per call
// when pooling is disabled (b == nil).
func (p *batchPool) lane(b *cpu.Batch, j int, co cpu.Options) *cpu.Machine {
	if b == nil {
		return cpu.New(co)
	}
	m := b.Lane(j)
	m.Recycle(co)
	return m
}

// shard runs fn(i) for every index in [0, n), fanned out across at most
// `workers` goroutines. It is shardGroups at group size 1; see there for the
// contract.
func shard(ctx context.Context, workers, n int, fn func(i int) error) error {
	return shardGroups(ctx, workers, 1, n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	})
}

// shardGroups runs fn(lo, hi) for every group of up to `group` consecutive
// indices covering [0, n), fanned out across at most `workers` goroutines.
// Workers claim whole groups atomically, so a driver can run each group's
// trials on the lanes of one cpu.Batch; fn must be independent across
// indices and write its results into per-index slots owned by the caller.
// shardGroups imposes no ordering on group completion, so deterministic
// reports come from merging those slots in index order afterwards — the
// report is byte-identical at every (workers, group) combination.
//
// Error semantics match the sequential loop the pool replaces: the error of
// the lowest failing group wins (groups below a failure were dispatched
// before it and run to completion, so a lower failure always gets the chance
// to claim the slot), a context error takes precedence, and no new groups
// are dispatched after the first failure.
func shardGroups(ctx context.Context, workers, group, n int, fn func(lo, hi int) error) error {
	if group < 1 {
		group = 1
	}
	groups := (n + group - 1) / group
	if workers > groups {
		workers = groups
	}
	if workers <= 1 {
		for g := 0; g < groups; g++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			lo := g * group
			hi := min(lo+group, n)
			if err := fn(lo, hi); err != nil {
				return err
			}
		}
		// A cancellation that lands during the final group must surface
		// exactly like the parallel path's post-wait check below — callers
		// rely on shardGroups never returning nil for a dead context.
		return ctx.Err()
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		errLo    = n
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() || ctx.Err() != nil {
					return
				}
				g := int(next.Add(1)) - 1
				if g >= groups {
					return
				}
				lo := g * group
				hi := min(lo+group, n)
				if err := fn(lo, hi); err != nil {
					mu.Lock()
					if lo < errLo {
						errLo, firstErr = lo, err
					}
					mu.Unlock()
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}
