package harness

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"pathfinder/internal/bpu"
	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
	"pathfinder/internal/snapstore"
)

func TestOptionsValidate(t *testing.T) {
	for _, o := range []Options{{}, {Parallelism: 4, BatchSize: 1}, {Parallelism: 1}} {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	cases := []struct {
		opts  Options
		field string
	}{
		{Options{Parallelism: -1}, "Parallelism"},
		{Options{BatchSize: -3}, "BatchSize"},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		var oe *OptionsError
		if !errors.As(err, &oe) {
			t.Fatalf("Validate(%+v) = %v, want *OptionsError", tc.opts, err)
		}
		if oe.Field != tc.field {
			t.Errorf("rejected field %q, want %q", oe.Field, tc.field)
		}
	}
	// The sharded drivers must refuse to start rather than absorb the value.
	if _, err := AESLeakEval(context.Background(), Options{Parallelism: -2}, 1, 0); err == nil {
		t.Error("AESLeakEval accepted negative Parallelism")
	}
	if _, err := ReadPHRRandomEval(context.Background(), Options{BatchSize: -1}, 1, 1); err == nil {
		t.Error("ReadPHRRandomEval accepted negative BatchSize")
	}
	if _, err := AESGridSweep(context.Background(), Options{Parallelism: -1}, 1, nil, nil, nil); err == nil {
		t.Error("AESGridSweep accepted negative Parallelism")
	}
}

// fakeSnapStore is an in-memory SnapStore for the cache-tier unit tests.
type fakeSnapStore struct {
	mu    sync.Mutex
	m     map[string]*warmEntry
	saves int
	loads int
}

func newFakeSnapStore() *fakeSnapStore { return &fakeSnapStore{m: make(map[string]*warmEntry)} }

func (f *fakeSnapStore) Load(key string) (*cpu.Snapshot, *core.ExtendedResult, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loads++
	e, ok := f.m[key]
	if !ok {
		return nil, nil, false
	}
	return e.snap, e.rec, true
}

func (f *fakeSnapStore) Save(key string, snap *cpu.Snapshot, rec *core.ExtendedResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.m[key]; ok {
		return
	}
	f.m[key] = &warmEntry{snap: snap, rec: rec}
	f.saves++
}

func (f *fakeSnapStore) Stats() (hits, misses, puts, evictions uint64, bytes int64, entries int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return 0, 0, uint64(f.saves), 0, 0, len(f.m)
}

// installFakeStore swaps in a fake store and resets every global the spill
// tier touches, restoring the world on cleanup.
func installFakeStore(t *testing.T) *fakeSnapStore {
	t.Helper()
	f := newFakeSnapStore()
	SetSnapStore(f)
	warm.reset()
	ResetSnapStoreStats()
	ResetPlannerStats()
	t.Cleanup(func() {
		SetSnapStore(nil)
		warm.reset()
		ResetSnapStoreStats()
		ResetPlannerStats()
	})
	return f
}

// TestWarmCacheStoreTier: the in-memory cache must spill to the installed
// store on both population paths and consult it on both miss paths.
func TestWarmCacheStoreTier(t *testing.T) {
	f := installFakeStore(t)
	snap := cpu.New(cpu.Options{Seed: 1}).Snapshot()
	key := warmKey{kind: "tier", arch: "a", seed: 9}

	// do: a computed entry spills.
	computes := 0
	if _, err := warm.do(key, func() (*warmEntry, error) {
		computes++
		return &warmEntry{snap: snap}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if f.saves != 1 {
		t.Fatalf("do spilled %d entries, want 1", f.saves)
	}

	// Cold cache, warm store: do must restore instead of recomputing.
	warm.reset()
	e, err := warm.do(key, func() (*warmEntry, error) {
		computes++
		return nil, errors.New("unreachable: store should have served this")
	})
	if err != nil || e == nil || e.snap == nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	if hits, _ := SnapStoreStats(); hits != 1 {
		t.Fatalf("store consult hits = %d, want 1", hits)
	}

	// putIfAbsent spills; getOrFetch consults the store before the fetcher.
	key2 := warmKey{kind: "tier", arch: "a", seed: 10}
	warm.putIfAbsent(key2, &warmEntry{snap: snap})
	if f.saves != 2 {
		t.Fatalf("putIfAbsent spilled %d entries total, want 2", f.saves)
	}
	warm.reset()
	SetWarmFetch(func(WarmStateKey) (*cpu.Snapshot, bool) {
		t.Error("fetcher consulted although the store holds the key")
		return nil, false
	})
	defer SetWarmFetch(nil)
	if _, ok := warm.getOrFetch(key2); !ok {
		t.Fatal("getOrFetch missed an entry the store holds")
	}
}

// TestRunSweepPrefetchPipeline: while group g executes, group g+1's prefix
// must be pulled from the store into the warm cache in the background, so
// the group's first cell starts from a resident entry.
func TestRunSweepPrefetchPipeline(t *testing.T) {
	f := installFakeStore(t)
	snap := cpu.New(cpu.Options{Seed: 2}).Snapshot()
	kA := WarmStateKey{Kind: "pf", Arch: "a", Seed: 1}
	kB := WarmStateKey{Kind: "pf", Arch: "a", Seed: 2}
	f.m[kB.String()] = &warmEntry{snap: snap} // only B is disk-resident

	sawResident := false
	cells := []SweepCell{
		{Label: "a", Prefix: kA, Run: func(context.Context) error { return nil }},
		{Label: "b", Prefix: kB, Run: func(context.Context) error {
			// The plan waits for B's prefetch before running this cell, so
			// the entry must already be in the in-memory cache.
			_, sawResident = warm.get(kB.internal())
			return nil
		}},
	}
	if err := RunSweep(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if !sawResident {
		t.Fatal("group B's prefix was not resident when its cell ran")
	}
	groups, ncells, shared, pfHits, _ := PlannerStats()
	if groups != 2 || ncells != 2 || shared != 0 {
		t.Fatalf("planner stats groups=%d cells=%d shared=%d", groups, ncells, shared)
	}
	if pfHits != 1 {
		t.Fatalf("prefetch hits = %d, want 1", pfHits)
	}
}

// loadSignalStore reports every Load key on a channel, so a test can
// observe a background prefetch reaching the store.
type loadSignalStore struct {
	*fakeSnapStore
	loads chan string
}

func (s loadSignalStore) Load(key string) (*cpu.Snapshot, *core.ExtendedResult, bool) {
	defer func() { s.loads <- key }()
	return s.fakeSnapStore.Load(key)
}

// TestRunSweepInputOrderGroups: cells run in input order, only
// consecutive cells with one prefix form a group, and the next group's
// prefix prefetch starts while the current group executes.
func TestRunSweepInputOrderGroups(t *testing.T) {
	f := installFakeStore(t)
	kA := WarmStateKey{Kind: "grp", Arch: "a", Seed: 1}
	kB := WarmStateKey{Kind: "grp", Arch: "a", Seed: 2}
	f.m[kB.String()] = &warmEntry{snap: cpu.New(cpu.Options{Seed: 3}).Snapshot()}

	sweep := func(t *testing.T, prefixes []WarmStateKey, during map[int]func()) {
		t.Helper()
		warm.reset()
		ResetPlannerStats()
		var order []int
		cells := make([]SweepCell, len(prefixes))
		for i, k := range prefixes {
			cells[i] = SweepCell{Prefix: k, Run: func(context.Context) error {
				order = append(order, i)
				if fn := during[i]; fn != nil {
					fn()
				}
				return nil
			}}
		}
		if err := RunSweep(context.Background(), cells); err != nil {
			t.Fatal(err)
		}
		for i, ci := range order {
			if ci != i {
				t.Fatalf("cells ran in order %v, want input order", order)
			}
		}
	}

	// Each sweep below issues at most two prefetch loads; the buffer keeps
	// an unread one from blocking the prefetch goroutine.
	loads := make(chan string, 4)
	SetSnapStore(loadSignalStore{f, loads})
	sweep(t, []WarmStateKey{kA, kB, kA}, nil)
	if groups, cells, shared, _, _ := PlannerStats(); groups != 3 || cells != 3 || shared != 0 {
		t.Fatalf("a,b,a: groups=%d cells=%d shared=%d, want 3/3/0", groups, cells, shared)
	}

	loads = make(chan string, 4)
	SetSnapStore(loadSignalStore{f, loads})
	sweep(t, []WarmStateKey{kA, kA, kB}, map[int]func(){0: func() {
		select {
		case k := <-loads:
			if k != kB.String() {
				t.Errorf("prefetch loaded %q, want b's prefix", k)
			}
		case <-time.After(10 * time.Second):
			t.Error("b's prefix prefetch did not start while the a-run executed")
		}
	}})
	if groups, cells, shared, _, _ := PlannerStats(); groups != 2 || cells != 3 || shared != 1 {
		t.Fatalf("a,a,b: groups=%d cells=%d shared=%d, want 2/3/1", groups, cells, shared)
	}

	// Zero-prefix cells share nothing, even when adjacent.
	sweep(t, []WarmStateKey{{}, {}}, nil)
	if groups, cells, shared, _, _ := PlannerStats(); groups != 2 || cells != 2 || shared != 0 {
		t.Fatalf("zero,zero: groups=%d cells=%d shared=%d, want 2/2/0", groups, cells, shared)
	}
}

// TestRunSweepCellError: a failing cell aborts the sweep with its label.
func TestRunSweepCellError(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	cells := []SweepCell{
		{Label: "ok", Run: func(context.Context) error { ran++; return nil }},
		{Label: "bad", Run: func(context.Context) error { return boom }},
		{Label: "never", Run: func(context.Context) error { ran++; return nil }},
	}
	err := RunSweep(context.Background(), cells)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if ran != 1 {
		t.Fatalf("%d cells ran after the failure, want sweep aborted", ran)
	}
}

// TestAESGridSweepPlannerStoreByteIdentical is the sweep determinism
// contract: the grid report is byte-identical to the cache-off sequential
// baseline with the warm cache on and the persistent store absent, cold or
// warm, at sequential and parallel Parallelism and at per-trial and auto
// BatchSize.
func TestAESGridSweepPlannerStoreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	archs := []bpu.Config{bpu.AlderLake, bpu.Skylake}
	seeds := []int64{31}
	const trials = 3

	run := func(t *testing.T, opts Options, store SnapStore) string {
		t.Helper()
		warm.reset()
		SetSnapStore(store)
		defer SetSnapStore(nil)
		rep, err := AESGridSweep(ctx, opts, trials, archs, seeds, nil)
		if err != nil {
			t.Fatal(err)
		}
		return marshalReport(t, rep)
	}

	want := run(t, Options{Parallelism: 1, noWarmCache: true}, nil)

	dir := t.TempDir()
	openStore := func(t *testing.T) *snapstore.Store {
		s, err := snapstore.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	cases := []struct {
		name  string
		opts  Options
		store bool
	}{
		{"planner-on", Options{}, false},
		{"planner-on-store-cold", Options{}, true},
		{"planner-on-store-warm", Options{}, true},
		{"planner-off-store-warm", Options{}, true},
		{"p1-batch1-store-warm", Options{Parallelism: 1, BatchSize: 1}, true},
		{"p4-store-warm", Options{Parallelism: 4}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s SnapStore
			if tc.store {
				s = openStore(t) // fresh Open each run: the cold-process path
			}
			if got := run(t, tc.opts, s); got != want {
				t.Errorf("report diverges from cache-off/store-off sequential baseline\ngot:  %s\nwant: %s", got, want)
			}
		})
	}

	// After the warm runs above, a cold process (fresh warm cache, fresh
	// store handle over the same directory) must resume from disk, with
	// every group after the first prefetched under the key the driver then
	// computes under (aesPhase1Key).
	warm.reset()
	ResetSnapStoreStats()
	ResetPlannerStats()
	s := openStore(t)
	SetSnapStore(s)
	defer SetSnapStore(nil)
	rep, err := AESGridSweep(ctx, Options{}, trials, archs, seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalReport(t, rep); got != want {
		t.Error("cold-process store-warm report diverges")
	}
	if hits, _ := SnapStoreStats(); hits == 0 {
		t.Error("cold-process rerun never hit the snapshot store")
	}
	if groups, _, _, prefetchHits, _ := PlannerStats(); prefetchHits != groups-1 {
		t.Errorf("cold-process rerun: %d prefetch hits over %d groups, want one for each group after the first", prefetchHits, groups)
	}
}

// TestAESNoiseSweepPlannerByteIdentical: the ladder shares one phase-1
// prefix; run with the warm cache it must reproduce the cache-off report.
func TestAESNoiseSweepPlannerByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	intensities := []float64{0, 0.004}
	warm.reset()
	off, err := AESNoiseSweep(ctx, Options{Parallelism: 1, noWarmCache: true}, 2, 0.015, intensities)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, off)
	warm.reset()
	on, err := AESNoiseSweep(ctx, Options{}, 2, 0.015, intensities)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalReport(t, on); got != want {
		t.Errorf("cache-on noise sweep diverges:\ngot:  %s\nwant: %s", got, want)
	}
	if _, _, shared, _, _ := PlannerStats(); shared == 0 {
		t.Error("noise ladder shared no prefix cells")
	}
}

// TestAESLeakEvalStoreColdProcess: the §9 driver itself (no sweep) must
// resume from the persistent store after a simulated process restart, with
// a byte-identical report and zero phase-1 retraining.
func TestAESLeakEvalStoreColdProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	dir := t.TempDir()
	warm.reset()
	ResetSnapStoreStats()
	s1, err := snapstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	SetSnapStore(s1)
	defer SetSnapStore(nil)
	first, err := AESLeakEval(ctx, Options{}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, first)

	// Simulated restart: empty warm cache, fresh store handle, same disk.
	warm.reset()
	ResetSnapStoreStats()
	s2, err := snapstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	SetSnapStore(s2)
	second, err := AESLeakEval(ctx, Options{}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalReport(t, second); got != want {
		t.Errorf("store-resumed report diverges:\ngot:  %s\nwant: %s", got, want)
	}
	hits, _ := SnapStoreStats()
	if hits == 0 {
		t.Fatal("restarted run never hit the snapshot store")
	}
	if sh, _, _, _, _, _ := s2.Stats(); sh == 0 {
		t.Fatal("store-level stats recorded no hits")
	}
}
