package cpu

import (
	"fmt"

	"pathfinder/internal/phr"
)

// Batch is a group of K independent trial machines ("lanes") whose hot
// per-trial state is laid out structure-of-arrays in shared arenas: all K
// lanes' path history registers sit in one contiguous []phr.Reg, their hart
// records in one []Hart, and the Machine headers in one []Machine. Trials
// share no state, so any execution interleaving of lanes is observationally
// identical. No production code builds a batch: the harness drivers run
// each trial on a pooled Machine. Batch stays as the dense engine's
// multi-lane test bed — FuzzBatchVsScalar and the batch tests and benchmark
// run lanes against the scalar interpreter and the refmodel oracle.
//
// Lanes are full Machines — Snapshot, RestoreFrom, Recycle and the dense
// engine all work per lane — plus batch-grain operations: RecycleAll,
// RestoreAll (warm-cache restore for every lane from one shared snapshot)
// and Each.
type Batch struct {
	opts  Options
	machs []Machine
	harts []Hart
	phrs  []phr.Reg
	lanes []*Machine
}

// NewBatch builds K lane machines over shared arenas. Every lane starts
// exactly as New(opts) would; per-trial seeds are applied by recycling or
// reseeding individual lanes.
func NewBatch(opts Options, k int) *Batch {
	if k <= 0 {
		panic(fmt.Sprintf("cpu: non-positive batch size %d", k))
	}
	opts = normalizeOptions(opts)
	b := &Batch{
		opts:  opts,
		machs: make([]Machine, k),
		harts: make([]Hart, k*opts.Harts),
		phrs:  make([]phr.Reg, k*opts.Harts),
		lanes: make([]*Machine, k),
	}
	for i := 0; i < k; i++ {
		initMachine(&b.machs[i], opts,
			b.harts[i*opts.Harts:(i+1)*opts.Harts],
			b.phrs[i*opts.Harts:(i+1)*opts.Harts])
		b.lanes[i] = &b.machs[i]
	}
	return b
}

// K returns the number of lanes.
func (b *Batch) K() int { return len(b.lanes) }

// Lane returns lane i's machine.
func (b *Batch) Lane(i int) *Machine { return b.lanes[i] }

// Options returns the (normalized) options the batch was built with.
func (b *Batch) Options() Options { return b.opts }

// RecycleAll recycles every lane to the state NewBatch(opts, K) would
// produce, reusing all arena and table storage. The same compatibility
// rules as Machine.Recycle apply.
func (b *Batch) RecycleAll(opts Options) {
	for _, m := range b.lanes {
		m.Recycle(opts)
	}
}

// RestoreAll rewinds every lane to the same snapshot — the batch-grain warm
// start: one shared warm snapshot fans out to K trial lanes, which are then
// individually Reseeded with their trial seeds.
func (b *Batch) RestoreAll(s *Snapshot) {
	for _, m := range b.lanes {
		m.RestoreFrom(s)
	}
}

// Each calls fn for every lane in lane order and returns the first error.
// It is the batch-step linearization point: because lanes are disjoint,
// running them in lane order is bit-identical to any other schedule, and
// keeping one lane's tables hot through its whole trial is what the data
// cache prefers.
func (b *Batch) Each(fn func(lane int, m *Machine) error) error {
	for i, m := range b.lanes {
		if err := fn(i, m); err != nil {
			return err
		}
	}
	return nil
}
