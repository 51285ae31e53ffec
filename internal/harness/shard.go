package harness

import (
	"context"
	"sync"
	"sync/atomic"

	"pathfinder/internal/cpu"
)

// machinePools holds idle one-hart machines for the whole process, one
// sync.Pool per (arch name, PHR size) — the pair Machine.Recycle checks.
// A recycled machine is observationally identical to a fresh one, so the
// trials and primary machines of different driver calls, jobs and sweeps
// share machines freely; the GC frees idle ones, so the pools need no bound.
var machinePools sync.Map // machineKey -> *sync.Pool of *cpu.Machine

type machineKey struct {
	arch    string
	phrSize int
}

// pooledMachine is the one machine a holder keeps from the process-wide
// pool: a sharded worker's, for all the trials it claims, or AESLeakEval's
// primary machine, for the call.
type pooledMachine struct {
	pool *sync.Pool // nil under refModel: every take builds, nothing returns
	m    *cpu.Machine
}

func newPooledMachine(opts Options) pooledMachine {
	if opts.refModel {
		return pooledMachine{}
	}
	arch := opts.arch()
	k := machineKey{arch.Name, arch.PHRSize}
	p, ok := machinePools.Load(k)
	if !ok {
		p, _ = machinePools.LoadOrStore(k, new(sync.Pool))
	}
	return pooledMachine{pool: p.(*sync.Pool)}
}

// take returns the holder's machine in the state cpu.New(co) produces, then
// restored to snap when snap is non-nil. The first take gets an idle machine
// from the pool, or builds one. Under refModel, where the warm cache is off
// and snap is always nil, every take builds a fresh machine instead, since
// an oracle predictor cannot be recycled.
func (p *pooledMachine) take(co cpu.Options, snap *cpu.Snapshot) *cpu.Machine {
	if p.pool == nil {
		return cpu.New(co)
	}
	if p.m == nil {
		if v := p.pool.Get(); v != nil {
			p.m = v.(*cpu.Machine)
		} else {
			p.m = cpu.New(co)
		}
	}
	if snap != nil {
		// The fused form keeps the machine in restore-sync with a snapshot
		// its previous trial also started from, so the rewind copies only
		// what that trial touched.
		p.m.RecycleRestore(co, snap)
	} else {
		p.m.Recycle(co)
	}
	return p.m
}

// release returns the holder's machine, if it took one, to the pool.
func (p *pooledMachine) release() {
	if p.m != nil {
		p.pool.Put(p.m)
		p.m = nil
	}
}

// machFunc hands one trial attempt its machine, in the state cpu.New(co)
// produces — then restored to snap when snap is non-nil. Under refModel,
// where the warm cache is off, snap is always nil.
type machFunc func(co cpu.Options, snap *cpu.Snapshot) *cpu.Machine

// runTrials runs trial(mach, t, attempt) for every index t in [0, n),
// sharded by shardGroups across the options' worker pool. Each trial runs
// under the zero Retry policy: the trial derives its attempt's machine
// options from (t, attempt), asks mach for the machine at most once per
// attempt and writes its outcome into a per-index slot the driver owns.
//
// Each worker keeps one pooledMachine for all the trials it claims and
// releases it when the run ends. After each attempt runTrials adds the
// counters of the machine that attempt took, and it returns their sum
// (merged in index order) with errs[t] holding the last error of a trial
// that used up its attempts. A context error aborts the run and is returned
// as err, with no partial results.
func runTrials(ctx context.Context, opts Options, n int, trial func(mach machFunc, t, attempt int) error) (errs []error, stats cpu.Counters, err error) {
	errs = make([]error, n)
	per := make([]cpu.Counters, n)
	workers := min(opts.workers(), n)
	ms := make([]pooledMachine, workers)
	for w := range ms {
		ms[w] = newPooledMachine(opts)
	}
	err = shardGroups(ctx, workers, n, func(w, t int) error {
		var got *cpu.Machine // the current attempt's machine
		mach := func(co cpu.Options, snap *cpu.Snapshot) *cpu.Machine {
			got = ms[w].take(co, snap)
			return got
		}
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
		return nil
	})
	for w := range ms {
		ms[w].release()
	}
	if err != nil {
		return nil, cpu.Counters{}, err
	}
	for t := range per {
		stats.Add(per[t])
	}
	return errs, stats, nil
}

// shardGroups runs fn(w, i) for every index i in [0, n), fanned out across
// at most `workers` goroutines; w in [0, workers) names the goroutine that
// runs the call, so fn can keep per-worker state without locking. Workers
// claim one index at a time; fn must be independent across indices and
// write its results into per-index slots owned by the caller. shardGroups
// imposes no ordering on completion, so deterministic reports come from
// merging those slots in index order afterwards — the report is
// byte-identical at every worker count.
//
// Error semantics match the sequential loop the pool replaces: the error of
// the lowest failing index wins (indices below a failure were dispatched
// before it and run to completion, so a lower failure always gets the chance
// to claim the slot), a context error takes precedence, and no new indices
// are dispatched after the first failure.
func shardGroups(ctx context.Context, workers, n int, fn func(w, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		// A cancellation that lands during the final index must surface
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
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					mu.Lock()
					if i < errLo {
						errLo, firstErr = i, err
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
