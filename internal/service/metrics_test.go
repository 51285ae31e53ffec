package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"pathfinder/internal/cpu"
	"pathfinder/internal/harness"
	"pathfinder/internal/snapstore"
)

// TestHistogramBucketBoundaries pins which bucket of the service's job
// duration histogram an observation on an exact upper bound lands in:
// Prometheus buckets are le (inclusive upper), so a duration equal to a
// bound must count in that bound's bucket, and anything past the last bound
// goes to +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	cases := []struct {
		seconds float64
		bucket  int // expected index into durationBuckets
	}{
		{0, 0},
		{0.0005, 0},
		{0.001, 0},  // exactly the first bound: inclusive
		{0.0011, 1}, // just past it
		{0.005, 1},
		{0.01, 2},
		{0.05, 3},
		{0.1, 4},
		{0.5, 5},
		{1, 6},
		{5, 7},
		{10, 8},
		{30, 9},
		{60, 10},
		{120, 11},                        // exactly the last finite bound
		{120.0001, len(durationBuckets)}, // overflow bucket
		{3600, len(durationBuckets)},     // way past the end
	}
	for i, c := range cases {
		t.Run(fmt.Sprintf("%gs", c.seconds), func(t *testing.T) {
			exp := fmt.Sprintf("case%d", i)
			s.metrics.latency.Observe(c.seconds, exp)
			text := s.metrics.Expose()
			for k, ub := range durationBuckets {
				want := 0
				if k >= c.bucket {
					want = 1
				}
				sample := fmt.Sprintf(`pathfinderd_job_duration_seconds_bucket{experiment=%q,le="%s"}`, exp, strconv.FormatFloat(ub, 'f', -1, 64))
				if got := metricValue(t, text, sample); got != want {
					t.Errorf("%s = %d, want %d", sample, got, want)
				}
			}
			if n := metricValue(t, text, fmt.Sprintf(`pathfinderd_job_duration_seconds_bucket{experiment=%q,le="+Inf"}`, exp)); n != 1 {
				t.Errorf("+Inf bucket = %d, want 1", n)
			}
			sum := fmt.Sprintf(`pathfinderd_job_duration_seconds_sum{experiment=%q} %g`, exp, c.seconds)
			if !strings.Contains(text, sum+"\n") {
				t.Errorf("exposition missing %s", sum)
			}
		})
	}
}

// TestHistogramExpositionCumulative checks the service's rendered duration
// histogram is cumulative and consistent: each le series includes every
// faster job, +Inf equals the count, and bounds render Prometheus-style.
func TestHistogramExpositionCumulative(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	durations := []time.Duration{
		500 * time.Microsecond, // bucket le=0.001
		time.Millisecond,       // le=0.001 (boundary)
		3 * time.Millisecond,   // le=0.005
		2 * time.Second,        // le=5
		10 * time.Minute,       // +Inf
	}
	for _, d := range durations {
		s.metrics.jobFinished("obs2", StateDone, d, cpu.Counters{})
	}
	exp := s.metrics.Expose()

	bucket := func(le string) int {
		return metricValue(t, exp, fmt.Sprintf(`pathfinderd_job_duration_seconds_bucket{experiment="obs2",le="%s"}`, le))
	}
	for _, c := range []struct {
		le   string
		want int
	}{
		{"0.001", 2}, {"0.005", 3}, {"0.01", 3}, {"1", 3}, {"5", 4}, {"120", 4}, {"+Inf", 5},
	} {
		if got := bucket(c.le); got != c.want {
			t.Errorf("bucket le=%s = %d, want %d", c.le, got, c.want)
		}
	}
	if n := metricValue(t, exp, `pathfinderd_job_duration_seconds_count{experiment="obs2"}`); n != 5 {
		t.Errorf("count = %d, want 5", n)
	}
	// Bounds must render Prometheus-style: no trailing zeros, ints bare.
	for _, want := range []string{`le="0.001"`, `le="0.5"`, `le="1"`, `le="120"`} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if strings.Contains(exp, `le="1.000000"`) || strings.Contains(exp, `le="5e`) {
		t.Error("bucket bounds rendered in a non-Prometheus format")
	}
}

// TestMetricsPlannerAndSnapStoreScrape runs a shared-prefix sweep against an
// installed snapshot store and scrapes GET /metrics, pinning the planner and
// store series a dashboard would alert on. The snapshot-store section must be
// gated on a store actually being installed.
func TestMetricsPlannerAndSnapStoreScrape(t *testing.T) {
	harness.SetSnapStore(nil)
	harness.ResetPlannerStats()
	harness.ResetSnapStoreStats()

	s := New(Config{Workers: 1, QueueDepth: 4})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	scrape := func() string {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /metrics = %d, want 200", rec.Code)
		}
		return rec.Body.String()
	}

	if exp := scrape(); strings.Contains(exp, "pathfinderd_snapshot_store_ops_total") {
		t.Fatal("snapshot-store series exposed with no store installed")
	}

	st, err := snapstore.Open(t.TempDir(), snapstore.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	harness.SetSnapStore(st)
	defer harness.SetSnapStore(nil)

	prefix := harness.WarmStateKey{Kind: "aes-phase1", Arch: "Alder Lake", PHRSize: 194, Prog: 0xabc, Seed: 1}
	cells := make([]harness.SweepCell, 3)
	for i := range cells {
		cells[i] = harness.SweepCell{
			Label:  fmt.Sprintf("cell-%d", i),
			Prefix: prefix,
			Run:    func(context.Context) error { return nil },
		}
	}
	if err := harness.RunSweep(context.Background(), cells); err != nil {
		t.Fatal(err)
	}

	exp := scrape()
	for sample, want := range map[string]int{
		"pathfinderd_sweep_planner_groups_total":       1,
		"pathfinderd_sweep_planner_cells_total":        3,
		"pathfinderd_sweep_planner_shared_cells_total": 2,
		"pathfinderd_snapshot_store_entries":           0,
	} {
		if got := metricValue(t, exp, sample); got != want {
			t.Errorf("%s = %d, want %d", sample, got, want)
		}
	}
	for _, sample := range []string{
		`pathfinderd_sweep_planner_prefetch_total{result="hit"}`,
		`pathfinderd_sweep_planner_prefetch_total{result="miss"}`,
		`pathfinderd_warmcache_store_requests_total{result="hit"}`,
		`pathfinderd_warmcache_store_requests_total{result="miss"}`,
		`pathfinderd_snapshot_store_ops_total{op="hit"}`,
		`pathfinderd_snapshot_store_ops_total{op="put"}`,
		`pathfinderd_snapshot_store_ops_total{op="evict"}`,
		"pathfinderd_snapshot_store_bytes",
	} {
		if !strings.Contains(exp, sample) {
			t.Errorf("exposition missing %s", sample)
		}
	}
}
