package service

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// submitSweep16 queues the benchmark workload: per µarch config one Table 2
// attack-surface job plus seven Figure 4 Read_PHR jobs with distinct seeds —
// 16 jobs total.
func submitSweep16(tb testing.TB, s *Service) {
	tb.Helper()
	for _, arch := range []string{"alderlake", "raptorlake"} {
		if _, err := s.Submit("table2", Params{Arch: arch}, "", 10*time.Minute); err != nil {
			tb.Fatal(err)
		}
		for seed := int64(1); seed <= 7; seed++ {
			if _, err := s.Submit("fig4", Params{Arch: arch, Seed: seed}, "", 10*time.Minute); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// runSweep16 executes the 16-job workload on a pool of the given size and
// returns the wall time from first submission to full drain.
func runSweep16(tb testing.TB, workers int) time.Duration {
	tb.Helper()
	s := New(Config{Workers: workers, QueueDepth: 32})
	start := time.Now()
	submitSweep16(tb, s)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		tb.Fatal(err)
	}
	elapsed := time.Since(start)
	c := s.StateCounts()
	if c[StateDone] != 16 {
		tb.Fatalf("sweep finished with states %v, want 16 done", c)
	}
	return elapsed
}

// nopResponseWriter discards the response; it isolates WriteJSON's own
// allocations from recorder bookkeeping.
type nopResponseWriter struct{ h http.Header }

func (w nopResponseWriter) Header() http.Header       { return w.h }
func (nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (nopResponseWriter) WriteHeader(int)             {}

// BenchmarkWriteJSON measures the pooled response-encode path with a
// typical job-view payload.
func BenchmarkWriteJSON(b *testing.B) {
	w := nopResponseWriter{h: make(http.Header)}
	body := map[string]any{"total": 2, "jobs": []JobView{{ID: "job-000001", Experiment: "aes", State: StateDone}, {ID: "job-000002", Experiment: "fig4", State: StateRunning}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WriteJSON(w, http.StatusOK, body)
	}
}

// TestWriteJSONSteadyStateAllocs pins the pooling win: once the pool is
// primed, a WriteJSON call must stay under the pre-pool allocation count
// (encoder + buffer + map iteration used to cost ~30).
func TestWriteJSONSteadyStateAllocs(t *testing.T) {
	w := nopResponseWriter{h: make(http.Header)}
	body := errorBody{Error: "queue full"}
	WriteJSON(w, http.StatusServiceUnavailable, body) // prime the pool
	avg := testing.AllocsPerRun(200, func() {
		WriteJSON(w, http.StatusServiceUnavailable, body)
	})
	if avg > 8 {
		t.Fatalf("WriteJSON allocates %.1f objects per call at steady state, want <= 8", avg)
	}
}

func BenchmarkSweep16Sequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSweep16(b, 1)
	}
}

func BenchmarkSweep16Pool(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSweep16(b, runtime.GOMAXPROCS(0))
	}
}

// TestEmitBenchArtifact writes BENCH_service.json at the repo root. Gated
// behind an environment variable so regular test runs stay fast:
//
//	PATHFINDERD_EMIT_BENCH=1 go test ./internal/service -run TestEmitBenchArtifact
func TestEmitBenchArtifact(t *testing.T) {
	if os.Getenv("PATHFINDERD_EMIT_BENCH") == "" {
		t.Skip("set PATHFINDERD_EMIT_BENCH=1 to emit BENCH_service.json")
	}
	workers := runtime.GOMAXPROCS(0)
	seq := runSweep16(t, 1)
	pool := runSweep16(t, workers)

	artifact := struct {
		Benchmark    string  `json:"benchmark"`
		Jobs         int     `json:"jobs"`
		Workers      int     `json:"workers"`
		GOMAXPROCS   int     `json:"gomaxprocs"`
		SequentialNS int64   `json:"sequential_ns"`
		PoolNS       int64   `json:"pool_ns"`
		Speedup      float64 `json:"speedup"`
		Note         string  `json:"note"`
	}{
		Benchmark:    "16-job table2+fig4 sweep, 1 worker vs GOMAXPROCS workers",
		Jobs:         16,
		Workers:      workers,
		GOMAXPROCS:   workers,
		SequentialNS: seq.Nanoseconds(),
		PoolNS:       pool.Nanoseconds(),
		Speedup:      float64(seq) / float64(pool),
		Note:         "speedup tracks available cores; on a single-CPU host it is ~1x",
	}
	raw, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "BENCH_service.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("sequential %v, pool(%d) %v, speedup %.2fx -> %s", seq, workers, pool, artifact.Speedup, path)
}
