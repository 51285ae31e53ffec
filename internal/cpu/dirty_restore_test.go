package cpu

import (
	"testing"

	"pathfinder/internal/bpu"
	"pathfinder/internal/faultinject"
)

// dirtyConfigs are the machine shapes the dirty-restore contract must hold
// under: quiet, noisy (transient windows collapse nondeterministically per
// the noise PRNG) and fault-armed (PHR pollution, training drops, cache
// eviction pressure all mutate state outside the architectural path).
func dirtyConfigs() map[string]Options {
	prof := faultinject.Default()
	return map[string]Options{
		"quiet":   {Arch: bpu.RaptorLake, Seed: 11},
		"noisy":   {Arch: bpu.AlderLake, Seed: 23, Noise: 0.3},
		"faulted": {Arch: bpu.RaptorLake, Seed: 7, Faults: &prof},
	}
}

// TestDirtyRestoreMatchesFullRestore is the bit-exactness differential for
// the tentpole fast path: a machine rewound via the dirty-only copies must
// be indistinguishable — full content hash and continuation behavior — from
// one rewound via the flat full copy, across repeated trials that each
// leave a different footprint.
func TestDirtyRestoreMatchesFullRestore(t *testing.T) {
	for name, opts := range dirtyConfigs() {
		t.Run(name, func(t *testing.T) {
			p := snapWorkload(t)
			fast := New(opts)
			full := New(opts)
			if err := fast.Run(p, "main"); err != nil {
				t.Fatal(err)
			}
			if err := full.Run(p, "main"); err != nil {
				t.Fatal(err)
			}
			snap := fast.Snapshot()
			if got := full.Snapshot().Hash(); got != snap.Hash() {
				t.Fatalf("identical warmups diverged before the experiment: %#x vs %#x", got, snap.Hash())
			}

			for trial := 0; trial < 6; trial++ {
				seed := int64(1000 + trial*31)
				fast.Reseed(seed)
				full.Reseed(seed)
				if err := fast.Run(p, "main"); err != nil {
					t.Fatal(err)
				}
				if err := full.Run(p, "main"); err != nil {
					t.Fatal(err)
				}

				// fast is in restore-sync with snap (it was snapshotted into /
				// restored from it and only instrumented mutators ran since),
				// so this takes the dirty-only path; full is forced flat.
				// Assert the predicate so the comparison can never silently
				// degrade into full-vs-full.
				if !fast.syncOK || fast.syncHash != snap.Hash() {
					t.Fatalf("trial %d: restore-sync lost; the dirty path would not fire", trial)
				}
				fast.RestoreFrom(snap)
				full.forgetRestoreSync()
				full.RestoreFrom(snap)

				if got := fast.Snapshot().Hash(); got != snap.Hash() {
					t.Fatalf("trial %d: dirty restore hash %#x, want %#x", trial, got, snap.Hash())
				}
				// The hash covers captured state; run a continuation to catch
				// divergence in derived state (the CBP's fold table, decoded
				// programs).
				fast.Reseed(seed + 1)
				full.Reseed(seed + 1)
				if err := fast.Run(p, "main"); err != nil {
					t.Fatal(err)
				}
				if err := full.Run(p, "main"); err != nil {
					t.Fatal(err)
				}
				if got, want := observeMachine(fast, p), observeMachine(full, p); got != want {
					t.Fatalf("trial %d: continuation after dirty restore diverged:\n got %+v\nwant %+v", trial, got, want)
				}
				fast.RestoreFrom(snap)
				full.forgetRestoreSync()
				full.RestoreFrom(snap)
			}
		})
	}
}

// TestDirtyRestoreCoversDirectMutators drives every exported mutator that
// bypasses Run — the surfaces the dirty bitmaps must instrument — then
// rewinds via the fast path and requires the full content hash back.
func TestDirtyRestoreCoversDirectMutators(t *testing.T) {
	p := snapWorkload(t)
	m := New(Options{Arch: bpu.RaptorLake, Seed: 3})
	if err := m.Run(p, "main"); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()

	mutations := []func(){
		func() { m.Data.Access(0x1234560) },
		func() { m.Data.Flush(0x9000) },
		func() { m.Data.EvictNth(0xdeadbeef00000007) },
		func() { m.Data.FlushAll() },
		func() { m.BPU.BTB.Insert(0x4242, 0x9999) },
		func() { m.BPU.IBP.Insert(0x4242, m.Hart(0).PHR, 0x7777) },
		func() { m.BPU.IBPB() },
		func() { m.BPU.CBP.Base.Update(0x1f04, true) },
		func() {
			h := m.Hart(0).PHR
			pred := m.BPU.CBP.Predict(0x1f04, h)
			m.BPU.CBP.Update(0x1f04, h, !pred.Taken, pred) // mispredict: trains + allocates
		},
		func() { m.BPU.CBP.Flush() },
		func() {
			for _, tbl := range m.BPU.CBP.Tables {
				tbl.DecayUseful()
			}
		},
	}
	for i, mut := range mutations {
		mut()
		m.RestoreFrom(snap) // fast path: sync held since the last restore
		if got := m.Snapshot().Hash(); got != snap.Hash() {
			t.Fatalf("mutation %d: dirty restore missed state: hash %#x, want %#x", i, got, snap.Hash())
		}
	}
}

// TestRecycleRestoreMatchesRecycleThenRestore pins the fused per-trial
// operation against the sequential pair it replaces, including the paths
// Recycle owns outright (options swap, memory reset, injector rebuild, stub
// clearing) and across trials whose options differ in seed and noise.
func TestRecycleRestoreMatchesRecycleThenRestore(t *testing.T) {
	for name, opts := range dirtyConfigs() {
		t.Run(name, func(t *testing.T) {
			p := snapWorkload(t)
			seq := New(opts)
			fused := New(opts)
			if err := seq.Run(p, "main"); err != nil {
				t.Fatal(err)
			}
			if err := fused.Run(p, "main"); err != nil {
				t.Fatal(err)
			}
			snap := seq.Snapshot()
			fused.SnapshotInto(&Snapshot{}) // establish fused's own sync point

			for trial := 0; trial < 5; trial++ {
				trialOpts := opts
				trialOpts.Seed = int64(500 + trial*17)
				trialOpts.Noise = opts.Noise / 2

				seq.Recycle(trialOpts)
				seq.RestoreFrom(snap)
				fused.RecycleRestore(trialOpts, snap)

				if got, want := fused.Snapshot().Hash(), seq.Snapshot().Hash(); got != want {
					t.Fatalf("trial %d: fused hash %#x, sequential %#x", trial, got, want)
				}
				seq.Reseed(trialOpts.Seed)
				fused.Reseed(trialOpts.Seed)
				if err := seq.Run(p, "main"); err != nil {
					t.Fatal(err)
				}
				if err := fused.Run(p, "main"); err != nil {
					t.Fatal(err)
				}
				if got, want := observeMachine(fused, p), observeMachine(seq, p); got != want {
					t.Fatalf("trial %d: fused continuation diverged:\n got %+v\nwant %+v", trial, got, want)
				}
			}
		})
	}
}

// TestBatchDirtyRestoreInvariance runs the batch drivers' exact per-group
// sequence — RecycleRestore each lane, run a trial, repeat — and requires
// every lane to keep reproducing the single-machine result.
func TestBatchDirtyRestoreInvariance(t *testing.T) {
	p := snapWorkload(t)
	opts := Options{Arch: bpu.AlderLake, Seed: 5, Noise: 0.2}

	ref := New(opts)
	if err := ref.Run(p, "main"); err != nil {
		t.Fatal(err)
	}
	snap := ref.Snapshot()

	bat := NewBatch(opts, 4)
	for trial := 0; trial < 8; trial++ {
		trialOpts := opts
		trialOpts.Seed = int64(2000 + trial)

		ref.Recycle(trialOpts)
		ref.RestoreFrom(snap)
		ref.Reseed(trialOpts.Seed)
		if err := ref.Run(p, "main"); err != nil {
			t.Fatal(err)
		}
		want := ref.Snapshot().Hash()

		for lane := 0; lane < bat.K(); lane++ {
			m := bat.Lane(lane)
			m.RecycleRestore(trialOpts, snap)
			m.Reseed(trialOpts.Seed)
			if err := m.Run(p, "main"); err != nil {
				t.Fatal(err)
			}
			if got := m.Snapshot().Hash(); got != want {
				t.Fatalf("trial %d lane %d: hash %#x, want %#x", trial, lane, got, want)
			}
		}
	}
}
