package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathfinder/internal/cpu"
)

// TestReplayRepopulationRespectsLRUOrder: when the journal holds more
// successes than the result cache has capacity, the restart must keep the
// most recently finished results — the survivors the live LRU held — and
// must do so deterministically, regardless of submission order.
func TestReplayRepopulationRespectsLRUOrder(t *testing.T) {
	dir := t.TempDir()
	// Five finished echo jobs; finish times deliberately out of submission
	// order (job 2 finished last, job 5 first).
	finishes := []string{
		"2026-08-06T12:10:05Z", // job 1
		"2026-08-06T12:10:09Z", // job 2 — newest
		"2026-08-06T12:10:03Z", // job 3
		"2026-08-06T12:10:04Z", // job 4
		"2026-08-06T12:10:01Z", // job 5 — oldest
	}
	var lines []string
	for i, fin := range finishes {
		id := fmt.Sprintf("job-%06d", i+1)
		lines = append(lines,
			fmt.Sprintf(`{"op":"submit","job":%q,"experiment":"echo","params":{"seed":%d},"time":"2026-08-06T12:00:0%dZ"}`, id, i+1, i),
			fmt.Sprintf(`{"op":"start","job":%q,"attempt":1,"time":"2026-08-06T12:05:00Z"}`, id),
			fmt.Sprintf(`{"op":"finish","job":%q,"state":"done","result":{"seed":%d},"time":%q}`, id, i+1, fin),
		)
	}
	writeJournalLines(t, dir, lines...)

	var runs atomic.Int64
	reg := NewRegistry()
	registerCounter(t, reg, "echo", &runs)
	s, err := Open(Config{
		Workers: 1, QueueDepth: 16, DataDir: dir,
		Registry: reg, ResultCacheSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	if n := s.results.len(); n != 2 {
		t.Fatalf("cache holds %d entries after replay, want capacity 2", n)
	}
	// The two newest finishes (jobs 2 and 1) survive; resubmitting them hits
	// the cache — the runner must not fire.
	for _, seed := range []int64{2, 1} {
		v, err := s.Submit("echo", Params{Seed: seed}, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		got := awaitState(t, s, v.ID, StateDone)
		if got.Error != "" {
			t.Fatalf("seed %d: %s", seed, got.Error)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("runner fired %d times for the two newest replayed results, want 0 (cache hits)", n)
	}
	// The oldest (job 5) was deterministically evicted: its resubmission runs.
	v, err := s.Submit("echo", Params{Seed: 5}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, s, v.ID, StateDone)
	if n := runs.Load(); n != 1 {
		t.Errorf("runner fired %d times for the evicted oldest result, want exactly 1", n)
	}
}

// TestDuplicatePutRefreshesRecency: a second store under an existing key is
// a use — it must move the entry to the front so eviction order depends
// only on the access history, not on which writer got there first.
func TestDuplicatePutRefreshesRecency(t *testing.T) {
	c := newResultCache(2)
	ka := resultKey{experiment: "a"}
	kb := resultKey{experiment: "b"}
	kc := resultKey{experiment: "c"}
	c.put(ka, &resultEntry{})
	c.put(kb, &resultEntry{})
	c.put(ka, &resultEntry{}) // duplicate: refreshes a, so b is now oldest
	c.put(kc, &resultEntry{}) // evicts b
	if !cached(c, ka) {
		t.Error("a evicted despite its duplicate-put refresh")
	}
	if cached(c, kb) {
		t.Error("b survived; the duplicate put did not refresh a's recency")
	}
	if !cached(c, kc) {
		t.Error("c missing")
	}
}

// TestEvictionUnderConcurrentIdenticalAndDistinctJobs floods a tiny cache
// with a mix of identical submissions (which must singleflight onto one
// run each) and enough distinct work to force evictions, then verifies the
// accounting: every job done, one run per distinct key, and the cache
// bounded at capacity throughout.
func TestEvictionUnderConcurrentIdenticalAndDistinctJobs(t *testing.T) {
	var runs atomic.Int64
	reg := NewRegistry()
	err := reg.Register(Experiment{
		Name:        "slowcount",
		Description: "test: counts invocations, slow enough to overlap",
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			runs.Add(1)
			select {
			case <-time.After(10 * time.Millisecond):
			case <-ctx.Done():
				return nil, cpu.Counters{}, ctx.Err()
			}
			return map[string]int64{"seed": p.Seed}, cpu.Counters{Runs: 1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 4, QueueDepth: 128, Registry: reg, ResultCacheSize: 3})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	const distinct = 8
	const dupsPerSeed = 4
	var wg sync.WaitGroup
	ids := make(chan string, distinct*dupsPerSeed)
	for seed := 1; seed <= distinct; seed++ {
		for d := 0; d < dupsPerSeed; d++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				v, err := s.Submit("slowcount", Params{Seed: seed}, "", 0)
				if err != nil {
					t.Error(err)
					return
				}
				ids <- v.ID
			}(int64(seed))
		}
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		v := awaitState(t, s, id, StateDone)
		if v.Error != "" {
			t.Fatalf("job %s: %s", id, v.Error)
		}
	}
	// Identical concurrent jobs singleflight; identical later jobs hit the
	// cache while their key survives. Distinct keys outnumber capacity 8:3,
	// so evicted seeds may legitimately re-run — but never more than once
	// per submission, and the total is bounded by the submission count.
	if n := runs.Load(); n < distinct || n > distinct*dupsPerSeed {
		t.Errorf("runner fired %d times for %d distinct seeds (%d submissions)", n, distinct, distinct*dupsPerSeed)
	}
	if got := s.results.len(); got > 3 {
		t.Errorf("cache holds %d entries, capacity 3", got)
	}
}
