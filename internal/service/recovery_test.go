package service

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"pathfinder/internal/cpu"
)

// echoRegistry returns a registry with a trivial "echo" experiment that
// reports the seed it ran with.
func echoRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	err := reg.Register(Experiment{
		Name:        "echo",
		Description: "test: returns its seed",
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			if err := ctx.Err(); err != nil {
				return nil, cpu.Counters{}, err
			}
			return map[string]int64{"seed": p.Seed}, cpu.Counters{Runs: 1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestCrashRecovery pre-seeds a journal with the exact state a SIGKILL
// leaves behind — a finished job, a job mid-run, a queued job, a job whose
// crash consumed its last attempt, and a torn tail line — then Opens the
// service on it and verifies every journaled job is accounted for with no
// lost or duplicated IDs.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	writeJournalLines(t, dir,
		// job 1 finished before the crash: must restore terminal, result intact.
		`{"op":"submit","job":"job-000001","experiment":"echo","params":{"seed":11},"timeout_ms":60000,"time":"2026-08-06T12:00:00Z"}`,
		`{"op":"start","job":"job-000001","attempt":1,"time":"2026-08-06T12:00:01Z"}`,
		`{"op":"finish","job":"job-000001","state":"done","result":{"seed":11},"time":"2026-08-06T12:00:02Z"}`,
		// job 2 was running when the process died: one start journaled.
		`{"op":"submit","job":"job-000002","experiment":"echo","params":{"seed":22},"timeout_ms":60000,"time":"2026-08-06T12:00:03Z"}`,
		`{"op":"start","job":"job-000002","attempt":1,"time":"2026-08-06T12:00:04Z"}`,
		// job 3 never left the queue.
		`{"op":"submit","job":"job-000003","experiment":"echo","params":{"seed":33},"timeout_ms":60000,"time":"2026-08-06T12:00:05Z"}`,
		// job 4 crashed on its second and final attempt.
		`{"op":"submit","job":"job-000004","experiment":"echo","params":{"seed":44},"timeout_ms":60000,"time":"2026-08-06T12:00:06Z"}`,
		`{"op":"start","job":"job-000004","attempt":1,"time":"2026-08-06T12:00:07Z"}`,
		`{"op":"retry","job":"job-000004","attempt":1,"error":"transient","time":"2026-08-06T12:00:08Z"}`,
		`{"op":"start","job":"job-000004","attempt":2,"time":"2026-08-06T12:00:09Z"}`,
		// torn tail from the crash itself.
		`{"op":"submit","job":"job-0000`,
	)

	s, err := Open(Config{
		Workers: 2, QueueDepth: 16, DataDir: dir, MaxAttempts: 2,
		RetryBackoff: time.Millisecond, Registry: echoRegistry(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)

	waitFor(t, 10*time.Second, "recovered jobs to finish", func() bool {
		for _, id := range []string{"job-000002", "job-000003"} {
			v, err := s.Get(id)
			if err != nil || !v.State.Terminal() {
				return false
			}
		}
		return true
	})

	v1, err := s.Get("job-000001")
	if err != nil || v1.State != StateDone || string(v1.Result) != `{"seed":11}` {
		t.Fatalf("finished job not restored intact: %+v, err=%v", v1, err)
	}
	v2, _ := s.Get("job-000002")
	if v2.State != StateDone || v2.Attempts != 2 {
		t.Fatalf("mid-run job: state=%s attempts=%d, want done on its second attempt", v2.State, v2.Attempts)
	}
	if string(v2.Result) != `{"seed":22}` {
		t.Fatalf("mid-run job re-ran with wrong params: %s", v2.Result)
	}
	v3, _ := s.Get("job-000003")
	if v3.State != StateDone || v3.Attempts != 1 {
		t.Fatalf("queued job: state=%s attempts=%d, want done first try", v3.State, v3.Attempts)
	}
	v4, _ := s.Get("job-000004")
	if v4.State != StateFailed || !strings.Contains(v4.Error, "exhausted the attempt budget") {
		t.Fatalf("budget-exhausted job: state=%s err=%q, want failed on recovery", v4.State, v4.Error)
	}

	// Sequence numbers resume past the replayed maximum: no ID reuse.
	v5, err := s.Submit("echo", Params{Seed: 55}, "", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if v5.ID != "job-000005" {
		t.Fatalf("post-recovery submit got ID %s, want job-000005", v5.ID)
	}
	if got := len(s.List(ListFilter{})); got != 5 {
		t.Fatalf("job table holds %d jobs, want 5 (4 recovered + 1 new)", got)
	}

	exp := s.metrics.Expose()
	if n := metricValue(t, exp, "pathfinderd_jobs_recovered_total"); n != 2 {
		t.Fatalf("recovered_total = %d, want 2 (jobs 2 and 3)", n)
	}
}

// TestRecoveryAcrossRestart is the same contract end to end with a real
// first life: run jobs under one durable Service, shut down with work still
// queued (simulating at least the pending half of a crash), reopen on the
// same directory, and require the second life to see every job.
func TestRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	s1, err := Open(Config{Workers: 1, QueueDepth: 16, DataDir: dir, Registry: echoRegistry(t)})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		v, err := s1.Submit("echo", Params{Seed: int64(i + 1)}, "", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	waitFor(t, 10*time.Second, "first life to finish its jobs", func() bool {
		for _, id := range ids {
			v, err := s1.Get(id)
			if err != nil || v.State != StateDone {
				return false
			}
		}
		return true
	})
	shutdown(t, s1)

	s2, err := Open(Config{Workers: 1, QueueDepth: 16, DataDir: dir, Registry: echoRegistry(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s2)
	for i, id := range ids {
		v, err := s2.Get(id)
		if err != nil {
			t.Fatalf("job %s lost across restart: %v", id, err)
		}
		if v.State != StateDone || !strings.Contains(string(v.Result), `"seed"`) {
			t.Fatalf("job %s: state=%s result=%s, want restored done", id, v.State, v.Result)
		}
		if want := fmt.Sprintf(`{"seed":%d}`, i+1); string(v.Result) != want {
			t.Fatalf("job %s result %s, want %s", id, v.Result, want)
		}
	}
	v, err := s2.Submit("echo", Params{Seed: 9}, "", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "job-000004" {
		t.Fatalf("second-life submit got %s, want job-000004", v.ID)
	}
}
