package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathfinder/internal/cpu"
)

// registerFlaky adds an experiment that fails its first `failures` runs and
// succeeds afterwards, counting calls.
func registerFlaky(t *testing.T, reg *Registry, name string, failures int, calls *atomic.Int64) {
	t.Helper()
	err := reg.Register(Experiment{
		Name:        name,
		Description: "test: fails the first N attempts",
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			n := calls.Add(1)
			if n <= int64(failures) {
				return nil, cpu.Counters{}, fmt.Errorf("transient failure %d", n)
			}
			return map[string]int64{"attempt": n}, cpu.Counters{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestJobRetrySucceedsWithinBudget: a job whose runner fails twice under a
// 3-attempt budget must end done, with the attempts visible on the view and
// the retries on /metrics.
func TestJobRetrySucceedsWithinBudget(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16, MaxAttempts: 3, RetryBackoff: time.Millisecond})
	defer shutdown(t, s)
	var calls atomic.Int64
	registerFlaky(t, s.Registry(), "flaky", 2, &calls)

	v, err := s.Submit("flaky", Params{}, "", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "flaky job to finish", func() bool {
		got, err := s.Get(v.ID)
		return err == nil && got.State.Terminal()
	})
	got, _ := s.Get(v.ID)
	if got.State != StateDone || got.Attempts != 3 {
		t.Fatalf("state=%s attempts=%d err=%q, want done after 3 attempts", got.State, got.Attempts, got.Error)
	}
	exp := s.metrics.Expose()
	if n := metricValue(t, exp, `pathfinderd_job_retries_total{experiment="flaky"}`); n != 2 {
		t.Fatalf("retries_total = %d, want 2", n)
	}
}

// TestJobRetryExhaustsBudget: permanent failure spends the whole budget and
// lands failed with the last error.
func TestJobRetryExhaustsBudget(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16, MaxAttempts: 2, RetryBackoff: time.Millisecond})
	defer shutdown(t, s)
	var calls atomic.Int64
	registerFlaky(t, s.Registry(), "doomed", 1<<30, &calls)

	v, err := s.Submit("doomed", Params{}, "", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "doomed job to finish", func() bool {
		got, err := s.Get(v.ID)
		return err == nil && got.State.Terminal()
	})
	got, _ := s.Get(v.ID)
	if got.State != StateFailed || got.Attempts != 2 || !strings.Contains(got.Error, "transient failure 2") {
		t.Fatalf("state=%s attempts=%d err=%q, want failed after 2 attempts with the last error", got.State, got.Attempts, got.Error)
	}
	if calls.Load() != 2 {
		t.Fatalf("runner called %d times, want exactly the budget of 2", calls.Load())
	}
}

// TestCancelWhileWaitingForRetry: cancelling a job parked on its backoff
// timer must finalize it cancelled and disarm the re-enqueue.
func TestCancelWhileWaitingForRetry(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16, MaxAttempts: 5, RetryBackoff: time.Hour})
	defer shutdown(t, s)
	var calls atomic.Int64
	registerFlaky(t, s.Registry(), "parked", 1<<30, &calls)

	v, err := s.Submit("parked", Params{}, "", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "job to park on its retry timer", func() bool {
		got, err := s.Get(v.ID)
		return err == nil && got.State == StatePending && got.Attempts == 1
	})
	if _, err := s.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(v.ID)
	if got.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got.State)
	}
	time.Sleep(20 * time.Millisecond)
	if calls.Load() != 1 {
		t.Fatalf("runner re-ran after cancel: %d calls", calls.Load())
	}
}

// TestBreakerOpensAndRecovers drives the per-experiment circuit breaker
// through its full cycle: consecutive failures open it, submissions bounce
// with ErrBreakerOpen, the cooldown admits a probe, and a success closes it.
func TestBreakerOpensAndRecovers(t *testing.T) {
	// The fake clock is read from worker goroutines, so guard it.
	var clockMu sync.Mutex
	clock := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}
	var healthy atomic.Bool
	s := New(Config{
		Workers: 1, QueueDepth: 16,
		BreakerThreshold: 2, BreakerCooldown: 10 * time.Second,
		Clock: func() time.Time {
			clockMu.Lock()
			defer clockMu.Unlock()
			return clock
		},
	})
	defer shutdown(t, s)
	err := s.Registry().Register(Experiment{
		Name:        "sick",
		Description: "test: fails until healed",
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			if healthy.Load() {
				return map[string]bool{"ok": true}, cpu.Counters{}, nil
			}
			return nil, cpu.Counters{}, errors.New("down")
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	submitAndWait := func() JobView {
		t.Helper()
		v, err := s.Submit("sick", Params{}, "", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, "job terminal", func() bool {
			got, err := s.Get(v.ID)
			return err == nil && got.State.Terminal()
		})
		got, _ := s.Get(v.ID)
		return got
	}

	submitAndWait() // failure 1
	submitAndWait() // failure 2: threshold reached, breaker opens

	if _, err := s.Submit("sick", Params{}, "", time.Minute); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("submit with open breaker: err = %v, want ErrBreakerOpen", err)
	}
	if st := s.breaker.Snapshot()["sick"]; st != BreakerOpen {
		t.Fatalf("breaker state = %d, want open (%d)", st, BreakerOpen)
	}
	// Other experiments are unaffected.
	if _, err := s.Submit("table1", Params{}, "", time.Minute); err != nil {
		t.Fatalf("healthy experiment rejected: %v", err)
	}

	// Cooldown passes; the heal takes and the probe closes the breaker.
	advance(11 * time.Second)
	healthy.Store(true)
	if got := submitAndWait(); got.State != StateDone {
		t.Fatalf("probe after cooldown: state=%s err=%q, want done", got.State, got.Error)
	}
	if st, ok := s.breaker.Snapshot()["sick"]; ok {
		t.Fatalf("breaker still tracking healed experiment (state %d), want closed/forgotten", st)
	}
	if got := submitAndWait(); got.State != StateDone {
		t.Fatalf("post-recovery submit: state=%s, want done", got.State)
	}
}

// TestBreakerHalfOpenRejectsSecondProbe: while the single probe is in
// flight, further submissions stay rejected; a failing probe re-opens.
func TestBreakerHalfOpenRejectsSecondProbe(t *testing.T) {
	clock := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	b := NewKeyedBreaker("experiment", 1, 10*time.Second, func() time.Time { return clock })
	b.Record("x", false) // opens at threshold 1
	if err := b.Allow("x"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker admitted: %v", err)
	}
	clock = clock.Add(11 * time.Second)
	if err := b.Allow("x"); err != nil {
		t.Fatalf("cooldown probe rejected: %v", err)
	}
	if err := b.Allow("x"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second submission during half-open admitted: %v", err)
	}
	b.Record("x", false) // probe failed: re-open, cooldown restarts
	if err := b.Allow("x"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("re-opened breaker admitted: %v", err)
	}
	clock = clock.Add(11 * time.Second)
	if err := b.Allow("x"); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Record("x", true)
	if err := b.Allow("x"); err != nil {
		t.Fatalf("closed breaker rejected: %v", err)
	}
}

// TestRunRecoveredPanicPath: a panicking experiment must land the job in
// failed with the panic message, leave the worker alive for later jobs, and
// count on the panic failure-class metric.
func TestRunRecoveredPanicPath(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16})
	defer shutdown(t, s)
	err := s.Registry().Register(Experiment{
		Name:        "bomb",
		Description: "test: panics",
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			panic("kaboom")
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	v, err := s.Submit("bomb", Params{}, "", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "panicking job to finish", func() bool {
		got, err := s.Get(v.ID)
		return err == nil && got.State.Terminal()
	})
	got, _ := s.Get(v.ID)
	if got.State != StateFailed || !strings.Contains(got.Error, "experiment panicked: kaboom") {
		t.Fatalf("state=%s err=%q, want failed with the panic message", got.State, got.Error)
	}

	// The worker survived: a normal job still runs to completion.
	v2, err := s.Submit("table1", Params{}, "", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "follow-up job to finish", func() bool {
		got, err := s.Get(v2.ID)
		return err == nil && got.State == StateDone
	})

	exp := s.metrics.Expose()
	if n := metricValue(t, exp, `pathfinderd_job_failures_total{experiment="bomb",class="panic"}`); n != 1 {
		t.Fatalf("panic failure class = %d, want 1", n)
	}
}

// TestCancelMetricsCounters pins the finished-by-state counters across the
// three Cancel shapes: queued (finalized immediately), running (runner
// unwinds), and finished (refused, counters untouched).
func TestCancelMetricsCounters(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16})
	defer shutdown(t, s)
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	registerBlocker(t, s.Registry(), "blocker", started, release)

	running, err := s.Submit("blocker", Params{}, "", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit("blocker", Params{}, "", time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "running job to unwind cancelled", func() bool {
		got, err := s.Get(running.ID)
		return err == nil && got.State == StateCancelled
	})

	close(release)
	done, err := s.Submit("blocker", Params{}, "", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "released job to finish", func() bool {
		got, err := s.Get(done.ID)
		return err == nil && got.State == StateDone
	})
	if _, err := s.Cancel(done.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("cancel on finished job: err = %v, want ErrFinished", err)
	}

	exp := s.metrics.Expose()
	if n := metricValue(t, exp, `pathfinderd_jobs_finished_total{experiment="blocker",state="cancelled"}`); n != 2 {
		t.Fatalf("cancelled counter = %d, want 2 (queued + running)", n)
	}
	if n := metricValue(t, exp, `pathfinderd_jobs_finished_total{experiment="blocker",state="done"}`); n != 1 {
		t.Fatalf("done counter = %d, want 1 (the refused cancel must not recount)", n)
	}
	if n := metricValue(t, exp, `pathfinderd_jobs{state="cancelled"}`); n != 2 {
		t.Fatalf("cancelled gauge = %d, want 2", n)
	}
}
