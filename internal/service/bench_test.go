package service

import (
	"context"
	"net/http"
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
