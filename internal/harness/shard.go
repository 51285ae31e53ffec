package harness

import (
	"context"
	"sync"
	"sync/atomic"

	"pathfinder/internal/bpu"
	"pathfinder/internal/cpu"
)

// machinePools holds idle one-hart machines for the whole process, one
// sync.Pool per (arch name, PHR size) — the pair Machine.Recycle checks.
// A recycled machine is observationally identical to a fresh one, so the
// trials of different driver calls, jobs and sweeps share machines freely;
// the GC frees idle ones, so the pools need no bound.
var machinePools sync.Map // machineKey -> *sync.Pool of *cpu.Machine

type machineKey struct {
	arch    string
	phrSize int
}

func machinePool(arch bpu.Config) *sync.Pool {
	k := machineKey{arch.Name, arch.PHRSize}
	if p, ok := machinePools.Load(k); ok {
		return p.(*sync.Pool)
	}
	p, _ := machinePools.LoadOrStore(k, new(sync.Pool))
	return p.(*sync.Pool)
}

// machFunc hands one trial attempt its machine, in the state cpu.New(co)
// produces — then restored to snap when snap is non-nil. Under RefModel,
// where the warm cache is off, snap is always nil.
type machFunc func(co cpu.Options, snap *cpu.Snapshot) *cpu.Machine

// runTrials runs trial(mach, t, attempt) for every index t in [0, n),
// sharded by shardGroups at the options' Parallelism and BatchSize. Each
// trial runs under the zero Retry policy: the trial derives its attempt's
// machine options from (t, attempt), asks mach for the machine at most once
// per attempt and writes its outcome into a per-index slot the driver owns.
//
// A worker runs each claimed group's trials in index order on one machine
// from the process-wide pool, recycled before every attempt and returned
// when the group completes (an aborted group's machine is left to the GC);
// under RefModel every attempt gets a fresh machine instead, since an
// oracle predictor cannot be recycled. After each attempt
// runTrials adds the counters of the machine that attempt took, and it
// returns their sum (merged in index order) with errs[t] holding the last
// error of a trial that used up its attempts. A context error aborts the run
// and is returned as err, with no partial results.
func runTrials(ctx context.Context, opts Options, n int, trial func(mach machFunc, t, attempt int) error) (errs []error, stats cpu.Counters, err error) {
	errs = make([]error, n)
	per := make([]cpu.Counters, n)
	pool := machinePool(opts.arch())
	err = shardGroups(ctx, opts.workers(), opts.batchSize(), n, func(lo, hi int) error {
		var m, got *cpu.Machine // the group's pooled machine; the current attempt's machine
		mach := func(co cpu.Options, snap *cpu.Snapshot) *cpu.Machine {
			if opts.RefModel {
				got = cpu.New(co)
				return got
			}
			if m == nil {
				if v := pool.Get(); v != nil {
					m = v.(*cpu.Machine)
				} else {
					m = cpu.New(co)
				}
			}
			if snap != nil {
				// The fused form keeps the machine in restore-sync with a
				// snapshot its previous trial also started from, so the
				// rewind copies only what that trial touched.
				m.RecycleRestore(co, snap)
			} else {
				m.Recycle(co)
			}
			got = m
			return m
		}
		for t := lo; t < hi; t++ {
			// The zero policy never waits, so the jitter seed is immaterial.
			errs[t] = Retry{}.Do(ctx, int64(t), func(attempt int) error {
				got = nil
				err := trial(mach, t, attempt)
				if got != nil {
					per[t].Add(got.Stats())
				}
				return err
			})
			if errs[t] != nil && ctx.Err() != nil {
				return errs[t]
			}
		}
		if m != nil {
			pool.Put(m)
		}
		return nil
	})
	if err != nil {
		return nil, cpu.Counters{}, err
	}
	for t := range per {
		stats.Add(per[t])
	}
	return errs, stats, nil
}

// shardGroups runs fn(lo, hi) for every group of up to `group` consecutive
// indices covering [0, n), fanned out across at most `workers` goroutines.
// Workers claim whole groups atomically; fn must be independent across
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
