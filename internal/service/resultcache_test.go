package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pathfinder/internal/cpu"
)

// registerCounter adds an instant experiment whose runner counts its
// invocations, so tests can tell a real run from a cache hit.
func registerCounter(t *testing.T, reg *Registry, name string, runs *atomic.Int64) {
	t.Helper()
	err := reg.Register(Experiment{
		Name:        name,
		Description: "test: counts runner invocations",
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			n := runs.Add(1)
			return map[string]any{"run": n, "seed": p.Seed}, cpu.Counters{Runs: 1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func awaitState(t *testing.T, s *Service, id string, want State) JobView {
	t.Helper()
	var v JobView
	waitFor(t, 10*time.Second, fmt.Sprintf("job %s to reach %s", id, want), func() bool {
		var err error
		v, err = s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return v.State == want
	})
	return v
}

func TestResultKeyCanonicalizesDefaults(t *testing.T) {
	reg := NewRegistry()
	// One submission spells the defaults out, the other leaves them zero;
	// after Resolve both must produce the same cache key.
	explicit, err := reg.Resolve("aes", Params{Arch: "alderlake", Trials: 24, Noise: 0.015})
	if err != nil {
		t.Fatal(err)
	}
	defaulted, err := reg.Resolve("aes", Params{})
	if err != nil {
		t.Fatal(err)
	}
	ka, ok := resultKeyFor("aes", explicit)
	if !ok {
		t.Fatal("explicit params did not produce a key")
	}
	kb, ok := resultKeyFor("aes", defaulted)
	if !ok {
		t.Fatal("defaulted params did not produce a key")
	}
	if ka != kb {
		t.Fatalf("equivalent submissions keyed differently:\n%+v\n%+v", ka, kb)
	}
	if kc, _ := resultKeyFor("aes", explicitWithSeed(explicit, 99)); kc == ka {
		t.Fatal("different seeds produced the same key")
	}
}

func explicitWithSeed(p Params, seed int64) Params {
	p.Seed = seed
	return p
}

func TestResultCacheServesRepeatJobs(t *testing.T) {
	var runs atomic.Int64
	reg := NewRegistry()
	registerCounter(t, reg, "counted", &runs)
	s := New(Config{Workers: 2, Registry: reg, ResultCacheSize: 8})
	defer shutdown(t, s)

	first, err := s.Submit("counted", Params{Seed: 5}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	v1 := awaitState(t, s, first.ID, StateDone)

	second, err := s.Submit("counted", Params{Seed: 5}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	v2 := awaitState(t, s, second.ID, StateDone)

	if got := runs.Load(); got != 1 {
		t.Fatalf("runner ran %d times, want 1 (second job should hit the cache)", got)
	}
	if string(v1.Result) != string(v2.Result) {
		t.Fatalf("cached result differs:\nfirst:  %s\nsecond: %s", v1.Result, v2.Result)
	}
	if v1.SimStats == nil || v2.SimStats == nil || *v1.SimStats != *v2.SimStats {
		t.Fatalf("cached sim stats differ: %+v vs %+v", v1.SimStats, v2.SimStats)
	}

	// A different seed is different work: it must miss and run.
	third, err := s.Submit("counted", Params{Seed: 6}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, s, third.ID, StateDone)
	if got := runs.Load(); got != 2 {
		t.Fatalf("runner ran %d times after a distinct submission, want 2", got)
	}

	exp := s.metrics.Expose()
	if got := metricValue(t, exp, `pathfinderd_result_cache_hits_total{experiment="counted"}`); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := metricValue(t, exp, `pathfinderd_result_cache_misses_total{experiment="counted"}`); got != 2 {
		t.Errorf("misses = %d, want 2", got)
	}
	if got := metricValue(t, exp, `pathfinderd_result_cache_entries`); got != 2 {
		t.Errorf("entries gauge = %d, want 2", got)
	}
}

// TestResultCacheDedupsConcurrentJobs is the acceptance scenario for the
// singleflight: identical jobs submitted together run the experiment once —
// the followers adopt the leader's result — and the dedup metric counts
// them.
func TestResultCacheDedupsConcurrentJobs(t *testing.T) {
	var starts atomic.Int64
	release := make(chan struct{})
	reg := NewRegistry()
	err := reg.Register(Experiment{
		Name:        "parked",
		Description: "test: parks until released, counting starts",
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			starts.Add(1)
			select {
			case <-release:
				return map[string]string{"outcome": "released"}, cpu.Counters{Runs: 1}, nil
			case <-ctx.Done():
				return nil, cpu.Counters{}, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 4, Registry: reg, ResultCacheSize: 8})
	defer shutdown(t, s)

	const n = 3
	ids := make([]string, n)
	for i := range ids {
		v, err := s.Submit("parked", Params{Seed: 1}, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}

	// One leader runs; the other two workers park as followers on its
	// flight. Only then release, so the dedup path is genuinely concurrent.
	waitFor(t, 10*time.Second, "both followers to join the flight", func() bool {
		exp := s.metrics.Expose()
		return metricSample(exp, `pathfinderd_result_cache_dedup_total{experiment="parked"}`) == n-1
	})
	close(release)

	var want string
	for i, id := range ids {
		v := awaitState(t, s, id, StateDone)
		if i == 0 {
			want = string(v.Result)
		} else if string(v.Result) != want {
			t.Fatalf("job %s result %s differs from leader's %s", id, v.Result, want)
		}
	}
	if got := starts.Load(); got != 1 {
		t.Fatalf("runner started %d times for %d identical jobs, want 1", got, n)
	}
	exp := s.metrics.Expose()
	if got := metricValue(t, exp, `pathfinderd_result_cache_misses_total{experiment="parked"}`); got != n {
		t.Errorf("misses = %d, want %d", got, n)
	}
	if got := metricSample(exp, `pathfinderd_result_cache_hits_total{experiment="parked"}`); got > 0 {
		t.Errorf("hits = %d, want none", got)
	}
}

// metricSample is metricValue without the fatal-on-absent behavior, for
// polling a counter that may not have been emitted yet; absent is -1.
func metricSample(exposition, sample string) int {
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			var v int
			if _, err := fmt.Sscanf(line[len(sample)+1:], "%d", &v); err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

func TestResultCacheRepopulatedFromJournal(t *testing.T) {
	var runs atomic.Int64
	reg := NewRegistry()
	registerCounter(t, reg, "counted", &runs)
	dir := t.TempDir()

	s1, err := Open(Config{Workers: 1, Registry: reg, ResultCacheSize: 8, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s1.Submit("counted", Params{Seed: 9}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	first := awaitState(t, s1, v.ID, StateDone)
	shutdown(t, s1)

	// The restarted daemon replays the journal; the replayed success must
	// land back in the cache so the repeat below never re-simulates.
	s2, err := Open(Config{Workers: 1, Registry: reg, ResultCacheSize: 8, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s2)
	v2, err := s2.Submit("counted", Params{Seed: 9}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	repeat := awaitState(t, s2, v2.ID, StateDone)
	if got := runs.Load(); got != 1 {
		t.Fatalf("runner ran %d times across the restart, want 1", got)
	}
	if string(repeat.Result) != string(first.Result) {
		t.Fatalf("replayed cache served %s, original was %s", repeat.Result, first.Result)
	}
	exp := s2.metrics.Expose()
	if got := metricValue(t, exp, `pathfinderd_result_cache_hits_total{experiment="counted"}`); got != 1 {
		t.Errorf("hits after restart = %d, want 1", got)
	}
}

func TestResultCacheDisabledByDefault(t *testing.T) {
	var runs atomic.Int64
	reg := NewRegistry()
	registerCounter(t, reg, "counted", &runs)
	s := New(Config{Workers: 1, Registry: reg}) // zero ResultCacheSize
	defer shutdown(t, s)
	if s.results != nil {
		t.Fatal("zero config built a result cache")
	}
	for i := 0; i < 2; i++ {
		v, err := s.Submit("counted", Params{Seed: 5}, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		awaitState(t, s, v.ID, StateDone)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("runner ran %d times with the cache disabled, want 2", got)
	}
}

func TestResultCacheLRUBound(t *testing.T) {
	c := newResultCache(2)
	k := func(i int) resultKey { return resultKey{experiment: "e", params: fmt.Sprint(i)} }
	e := func(i int) *resultEntry { return &resultEntry{result: json.RawMessage(fmt.Sprint(i))} }
	c.put(k(1), e(1))
	c.put(k(2), e(2))
	if _, ok := c.get(k(1)); !ok { // refresh 1; 2 becomes least recent
		t.Fatal("entry 1 missing")
	}
	c.put(k(3), e(3))
	if _, ok := c.get(k(2)); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Error("recently-used entry was evicted")
	}
	if got := c.len(); got != 2 {
		t.Errorf("len = %d, want 2", got)
	}
}
