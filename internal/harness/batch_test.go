package harness

import (
	"context"
	"runtime"
	"testing"

	"pathfinder/internal/faultinject"
)

// The batch half of the determinism contract: a report is a pure function of
// (Options, arguments), independent of BatchSize. The trial-group grain only
// decides which consecutive trials share one pooled machine — never what a
// trial computes — so every BatchSize must reproduce the scalar-grain
// (BatchSize 1) report byte for byte at every Parallelism level. CI runs
// this file under -race, so any state leaking from one trial into the next
// on a recycled machine surfaces here either as a report mismatch or as a
// data race.

// batchGrid is the K sweep the invariance tests run: scalar grain, a small
// explicit grain, the auto-tuned default, and the machine's GOMAXPROCS.
func batchGrid() []int {
	return []int{1, 4, 0, runtime.GOMAXPROCS(0)}
}

func TestReadPHRBatchSizeInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	base, err := ReadPHRRandomEval(ctx, Options{Parallelism: 1, BatchSize: 1}, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, base)
	for _, k := range batchGrid() {
		for _, w := range []int{1, 4, 0} {
			rep, err := ReadPHRRandomEval(ctx, Options{Parallelism: w, BatchSize: k}, 3, 8)
			if err != nil {
				t.Fatalf("batch %d parallelism %d: %v", k, w, err)
			}
			if got := marshalReport(t, rep); got != want {
				t.Errorf("batch %d parallelism %d diverges from scalar-grain sequential:\ngot:  %s\nwant: %s",
					k, w, got, want)
			}
		}
	}
}

func TestFig7BatchSizeInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	base, err := Fig7ImageRecovery(ctx, Options{Parallelism: 1, BatchSize: 1}, 16, 70, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, base)
	// Fig7 images are the most expensive trials in the suite, so this driver
	// gets a trimmed grid: an odd explicit grain (groups of 3 over 2 images
	// exercise a partial trailing group) and the auto-tuned default, both at
	// Parallelism 2.
	for _, k := range []int{3, 0} {
		rep, err := Fig7ImageRecovery(ctx, Options{Parallelism: 2, BatchSize: k}, 16, 70, 2)
		if err != nil {
			t.Fatalf("batch %d: %v", k, err)
		}
		if got := marshalReport(t, rep); got != want {
			t.Errorf("batch %d diverges from scalar-grain sequential:\ngot:  %s\nwant: %s", k, got, want)
		}
	}
}

func TestAESBatchSizeInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	base, err := AESLeakEval(ctx, Options{Parallelism: 1, BatchSize: 1}, 6, 0.015)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, base)
	for _, k := range batchGrid() {
		for _, w := range []int{1, 4, 0} {
			rep, err := AESLeakEval(ctx, Options{Parallelism: w, BatchSize: k}, 6, 0.015)
			if err != nil {
				t.Fatalf("batch %d parallelism %d: %v", k, w, err)
			}
			if got := marshalReport(t, rep); got != want {
				t.Errorf("batch %d parallelism %d diverges from scalar-grain sequential:\ngot:  %s\nwant: %s",
					k, w, got, want)
			}
		}
	}
}

// TestAESWarmCacheBatchSizeInvariant pins the warm-start path: with noise 0
// and the warm-state cache on, every trial after the donor restores its
// pooled machine from one shared snapshot, then reseeds it.
// The report must still match the cache-off, scalar-grain sequential run at
// every BatchSize, with the cache cold and already populated.
func TestAESWarmCacheBatchSizeInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	off, err := AESLeakEval(ctx, Options{Parallelism: 1, BatchSize: 1, noWarmCache: true}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, off)
	for _, k := range batchGrid() {
		warm.reset()
		for _, state := range []string{"cold", "warm"} {
			rep, err := AESLeakEval(ctx, Options{BatchSize: k}, 4, 0)
			if err != nil {
				t.Fatalf("batch %d (%s cache): %v", k, state, err)
			}
			if got := marshalReport(t, rep); got != want {
				t.Errorf("batch %d (%s cache) diverges from cache-off scalar-grain sequential:\ngot:  %s\nwant: %s",
					k, state, got, want)
			}
		}
		if hits, _ := warm.stats(); hits == 0 {
			t.Errorf("batch %d: second run never hit the warm cache", k)
		}
	}
}

// TestFaultedBatchSizeInvariant arms the full fault-injection profile and
// checks the grain sweep again on both retrying drivers: injector streams and
// per-attempt reseeds are pure functions of the trial index, so neither the
// lane a trial runs on nor the grain of its group can move a fault event.
func TestFaultedBatchSizeInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	prof := faultinject.Default().WithPollution(0.001, 8)
	opts := func(w, k int) Options {
		return Options{Parallelism: w, BatchSize: k, Faults: &prof}
	}
	t.Run("aes", func(t *testing.T) {
		base, err := AESLeakEval(ctx, opts(1, 1), 6, 0.015)
		if err != nil {
			t.Fatal(err)
		}
		want := marshalReport(t, base)
		for _, k := range batchGrid() {
			rep, err := AESLeakEval(ctx, opts(0, k), 6, 0.015)
			if err != nil {
				t.Fatalf("batch %d: %v", k, err)
			}
			if got := marshalReport(t, rep); got != want {
				t.Errorf("batch %d diverges from scalar-grain sequential:\ngot:  %s\nwant: %s", k, got, want)
			}
		}
	})
	t.Run("readphr", func(t *testing.T) {
		base, err := ReadPHRRandomEval(ctx, opts(1, 1), 3, 8)
		if err != nil {
			t.Fatal(err)
		}
		want := marshalReport(t, base)
		for _, k := range batchGrid() {
			rep, err := ReadPHRRandomEval(ctx, opts(0, k), 3, 8)
			if err != nil {
				t.Fatalf("batch %d: %v", k, err)
			}
			if got := marshalReport(t, rep); got != want {
				t.Errorf("batch %d diverges from scalar-grain sequential:\ngot:  %s\nwant: %s", k, got, want)
			}
		}
	})
}

// TestBatchSizeSizesNoAllocation pins that BatchSize only sets how many
// consecutive trials a worker claims and sizes no allocation: a one-trial
// call at grain 256 must not build a machine per unit of grain (about
// 1.27 MB each), whatever batch_size a service client sends.
func TestBatchSizeSizesNoAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadPHRRandomEval(context.Background(), Options{BatchSize: 256}, 1, 8); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 32 {
		t.Errorf("one trial at BatchSize 256 allocated %.1f MB, want < 32 MB", mb)
	}
}
