package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pathfinder/internal/bpu"
	"pathfinder/internal/faultinject"
)

// The sharded drivers' determinism contract: a report is a pure function of
// (Options, arguments), independent of Parallelism. CI runs this file under
// -race, so any state shared between worker machines that could break the
// contract surfaces here either as a report mismatch or as a data race.

func marshalReport(t *testing.T, rep any) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestShardVisitsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var visited [37]atomic.Bool
		// runTrials keeps per-worker state in slot w without locking, so no
		// two calls in flight may share a w. Each worker's first call holds
		// its slot until every worker has made one, so a shared w clashes.
		busy := make([]atomic.Bool, workers)
		var first sync.WaitGroup
		first.Add(workers)
		err := shardGroups(context.Background(), workers, len(visited), func(w, i int) error {
			inRange := w >= 0 && w < workers
			clash := inRange && busy[w].Swap(true)
			if i < workers {
				first.Done()
				first.Wait()
			}
			if !inRange {
				return fmt.Errorf("index %d: worker %d out of range", i, w)
			}
			busy[w].Store(false)
			if clash {
				return fmt.Errorf("index %d: worker %d already busy", i, w)
			}
			if visited[i].Swap(true) {
				return fmt.Errorf("index %d visited twice", i)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range visited {
			if !visited[i].Load() {
				t.Fatalf("workers=%d: index %d not visited", workers, i)
			}
		}
	}
}

func TestShardLowestErrorWins(t *testing.T) {
	want := errors.New("boom 5")
	for _, workers := range []int{1, 4} {
		err := shardGroups(context.Background(), workers, 64, func(_, i int) error {
			if i == 5 {
				return want
			}
			if i >= 20 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if !errors.Is(err, want) {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, want)
		}
	}
}

func TestShardContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := shardGroups(ctx, 4, 8, func(_, _ int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestReadPHRParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	base, err := ReadPHRRandomEval(context.Background(), Options{parallelism: 1}, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 3} {
		rep, err := ReadPHRRandomEval(context.Background(), Options{parallelism: w}, 3, 8)
		if err != nil {
			t.Fatalf("parallelism %d: %v", w, err)
		}
		if got, want := marshalReport(t, rep), marshalReport(t, base); got != want {
			t.Errorf("parallelism %d diverges from sequential:\ngot:  %s\nwant: %s", w, got, want)
		}
	}
}

func TestFig7ParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	base, err := Fig7ImageRecovery(context.Background(), Options{parallelism: 1}, 16, 70, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Fig7ImageRecovery(context.Background(), Options{parallelism: 2}, 16, 70, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshalReport(t, rep), marshalReport(t, base); got != want {
		t.Errorf("parallel report diverges from sequential:\ngot:  %s\nwant: %s", got, want)
	}
}

func TestAESParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	base, err := AESLeakEval(context.Background(), Options{parallelism: 1}, 6, 0.015)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 4} {
		rep, err := AESLeakEval(context.Background(), Options{parallelism: w}, 6, 0.015)
		if err != nil {
			t.Fatalf("parallelism %d: %v", w, err)
		}
		if got, want := marshalReport(t, rep), marshalReport(t, base); got != want {
			t.Errorf("parallelism %d diverges from sequential:\ngot:  %s\nwant: %s", w, got, want)
		}
	}
}

// TestGoldenParallelism1 pins the forced-sequential path of every sharded
// driver to the recorded golden reports (satellite of the determinism
// contract: parallelism: 1 must reproduce the recorded behaviour exactly,
// while the default pool reproduces it via the invariance tests above).
func TestGoldenParallelism1(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	seq := Options{parallelism: 1}
	rp, err := ReadPHRRandomEval(context.Background(), seq, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_readphr.json", rp)
	f7, err := Fig7ImageRecovery(context.Background(), seq, 16, 70, 2)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_fig7.json", f7)
	al, err := AESLeakEval(context.Background(), seq, 8, 0.015)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_aesleak.json", al)
}

// TestMachinePoolReuseAcrossCalls pins that a machine pooled across driver
// calls carries nothing from one call into the next. One sequence of calls
// runs, then runs again in reverse order in the same process, so every call
// of the second pass takes machines the other calls left behind; each must
// reproduce its first-pass report. The sequence mixes fault-injected and
// clean machines, the warm-shared AES path and a noisy one, on all three
// Table 1 machines at the sequential and the pooled Parallelism.
func TestMachinePoolReuseAcrossCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	ctx := context.Background()
	prof := faultinject.Default().WithPollution(0.001, 8)
	type call struct {
		name string
		run  func() (any, error)
	}
	var calls []call
	for _, arch := range bpu.Configs() {
		for _, p := range []int{1, 0} {
			o := Options{Arch: arch, parallelism: p}
			f := o
			f.Faults = &prof
			name := fmt.Sprintf("%s/parallelism=%d/", arch.Name, p)
			calls = append(calls,
				call{name + "readphr", func() (any, error) { return ReadPHRRandomEval(ctx, o, 2, 8) }},
				call{name + "readphr-faults", func() (any, error) { return ReadPHRRandomEval(ctx, f, 2, 8) }},
				call{name + "aes-warm-shared", func() (any, error) { return AESLeakEval(ctx, o, 3, 0) }},
				call{name + "aes-noise", func() (any, error) { return AESLeakEval(ctx, o, 3, 0.015) }},
			)
		}
	}
	first := make([]string, len(calls))
	for i, c := range calls {
		rep, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		first[i] = marshalReport(t, rep)
	}
	for i := len(calls) - 1; i >= 0; i-- {
		rep, err := calls[i].run()
		if err != nil {
			t.Fatalf("%s (reverse pass): %v", calls[i].name, err)
		}
		if got := marshalReport(t, rep); got != first[i] {
			t.Errorf("%s: reverse pass diverges from the first pass:\ngot:  %s\nwant: %s", calls[i].name, got, first[i])
		}
	}
}
