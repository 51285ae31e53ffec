package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pathfinder/internal/cpu"
	"pathfinder/internal/harness"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// registerBlocker adds an experiment that parks until released or
// cancelled, reporting each start on the started channel.
func registerBlocker(t *testing.T, reg *Registry, name string, started chan struct{}, release chan struct{}) {
	t.Helper()
	err := reg.Register(Experiment{
		Name:        name,
		Description: "test: parks until released or cancelled",
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			if started != nil {
				started <- struct{}{}
			}
			select {
			case <-release:
				return map[string]string{"outcome": "released"}, cpu.Counters{}, nil
			case <-ctx.Done():
				return nil, cpu.Counters{}, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func shutdown(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// metricValue extracts one sample value from a Prometheus text exposition.
func metricValue(t *testing.T, exposition, sample string) int {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			var v int
			if _, err := fmt.Sscanf(line[len(sample)+1:], "%d", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("sample %q missing from exposition:\n%s", sample, exposition)
	return 0
}

// TestBatchSweepAcrossArchs is the acceptance scenario: a ≥16-job Figure 4
// sweep across both 194-doublet microarchitectures submitted through the
// HTTP API, executed by the worker pool, with one in-flight job cancelled
// via the API and /metrics scraped for consistent state counts.
func TestBatchSweepAcrossArchs(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64, DefaultTimeout: time.Minute})
	defer shutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// A blocking job to cancel while it is genuinely in flight.
	started := make(chan struct{}, 1)
	registerBlocker(t, s.Registry(), "block", started, make(chan struct{}))
	status, body := postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Experiment: "block"})
	if status != http.StatusAccepted {
		t.Fatalf("submit block: status %d: %s", status, body)
	}
	var blocked JobView
	if err := json.Unmarshal(body, &blocked); err != nil {
		t.Fatal(err)
	}
	<-started // the job is running on a worker now

	// The 16-job sweep: 8 seeds × both µarch configs.
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	status, body = postJSON(t, srv.URL+"/v1/batch", BatchRequest{
		Experiment: "fig4",
		Params:     Params{Doublets: 2},
		Sweep:      &Sweep{Archs: []string{"alderlake", "raptorlake"}, Seeds: seeds},
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit batch: status %d: %s", status, body)
	}
	var batchResp struct {
		Batch string    `json:"batch"`
		Total int       `json:"total"`
		Jobs  []JobView `json:"jobs"`
	}
	if err := json.Unmarshal(body, &batchResp); err != nil {
		t.Fatal(err)
	}
	if batchResp.Total != 16 {
		t.Fatalf("batch admitted %d jobs, want 16", batchResp.Total)
	}

	// Cancel the in-flight blocker through the API.
	status, body = postJSON(t, srv.URL+"/v1/jobs/"+blocked.ID+"/cancel", struct{}{})
	if status != http.StatusOK {
		t.Fatalf("cancel: status %d: %s", status, body)
	}
	waitFor(t, 10*time.Second, "blocker to reach cancelled", func() bool {
		v, err := s.Get(blocked.ID)
		return err == nil && v.State == StateCancelled
	})

	// All sweep jobs complete.
	waitFor(t, 120*time.Second, "sweep completion", func() bool {
		c := s.StateCounts()
		return c[StatePending] == 0 && c[StateRunning] == 0
	})

	// Every job is done, carries simulator counters, and its result matches
	// a direct driver invocation with the same (arch, seed).
	for _, jv := range batchResp.Jobs {
		status, body = getBody(t, srv.URL+"/v1/jobs/"+jv.ID)
		if status != http.StatusOK {
			t.Fatalf("get %s: status %d", jv.ID, status)
		}
		var got JobView
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.State != StateDone {
			t.Fatalf("job %s (%+v): state %s, err %q", got.ID, got.Params, got.State, got.Error)
		}
		if got.SimStats == nil || got.SimStats.CondBranches == 0 {
			t.Fatalf("job %s: missing aggregated simulator counters", got.ID)
		}
		var rep harness.Fig4Report
		if err := json.Unmarshal(got.Result, &rep); err != nil {
			t.Fatalf("job %s result: %v", got.ID, err)
		}
		arch, err := ArchConfig(got.Params.Arch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := harness.Fig4ReadDoublet(context.Background(),
			harness.Options{Arch: arch, Seed: got.Params.Seed}, got.Params.Doublets)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Rows) != len(want.Rows) {
			t.Fatalf("job %s: %d rows, want %d", got.ID, len(rep.Rows), len(want.Rows))
		}
		for i := range rep.Rows {
			if rep.Rows[i] != want.Rows[i] {
				t.Fatalf("job %s row %d: got %+v, want %+v", got.ID, i, rep.Rows[i], want.Rows[i])
			}
		}
	}

	// Batch rollup agrees.
	status, body = getBody(t, srv.URL+"/v1/batch/"+batchResp.Batch)
	if status != http.StatusOK {
		t.Fatalf("get batch: status %d", status)
	}
	var bv BatchView
	if err := json.Unmarshal(body, &bv); err != nil {
		t.Fatal(err)
	}
	if bv.Total != 16 || bv.ByState[StateDone] != 16 {
		t.Fatalf("batch rollup: %+v", bv)
	}

	// /metrics state counts are consistent with the job table: 16 sweep jobs
	// done, the blocker cancelled, nothing pending or running.
	status, body = getBody(t, srv.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	exposition := string(body)
	checks := map[string]int{
		`pathfinderd_jobs{state="pending"}`:                                     0,
		`pathfinderd_jobs{state="running"}`:                                     0,
		`pathfinderd_jobs{state="done"}`:                                        16,
		`pathfinderd_jobs{state="failed"}`:                                      0,
		`pathfinderd_jobs{state="cancelled"}`:                                   1,
		`pathfinderd_jobs_submitted_total{experiment="fig4"}`:                   16,
		`pathfinderd_jobs_finished_total{experiment="fig4",state="done"}`:       16,
		`pathfinderd_jobs_finished_total{experiment="block",state="cancelled"}`: 1,
		`pathfinderd_job_duration_seconds_count{experiment="fig4"}`:             16,
	}
	for sample, want := range checks {
		if got := metricValue(t, exposition, sample); got != want {
			t.Errorf("%s = %d, want %d", sample, got, want)
		}
	}
	if v := metricValue(t, exposition, `pathfinderd_sim_events_total{event="mispredicts"}`); v == 0 {
		t.Errorf("aggregated mispredict counter is zero after 16 experiments")
	}

	// Obs1 through the service: Raptor Lake and Alder Lake results agree for
	// equal seeds (identical PHR structure).
	for _, seed := range seeds {
		var byArch [2]json.RawMessage
		for i, arch := range []string{"alderlake", "raptorlake"} {
			jobs := s.List(ListFilter{Batch: batchResp.Batch})
			for _, j := range jobs {
				if j.Params.Arch == arch && j.Params.Seed == seed {
					byArch[i] = j.Result
				}
			}
		}
		var a, b harness.Fig4Report
		if err := json.Unmarshal(byArch[0], &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(byArch[1], &b); err != nil {
			t.Fatal(err)
		}
		for i := range a.Rows {
			if a.Rows[i] != b.Rows[i] {
				t.Errorf("seed %d doublet %d: alderlake %+v != raptorlake %+v (Observation 1)",
					seed, i, a.Rows[i], b.Rows[i])
			}
		}
	}
}

// TestParallelExecution proves the pool genuinely runs jobs concurrently:
// four blocking jobs must all be resident on workers at the same time.
func TestParallelExecution(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 16})
	defer shutdown(t, s)

	started := make(chan struct{}, 4)
	release := make(chan struct{})
	registerBlocker(t, s.Registry(), "block", started, release)
	for i := 0; i < 4; i++ {
		if _, err := s.Submit("block", Params{}, "", time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d/4 jobs running concurrently", i)
		}
	}
	if got := s.StateCounts()[StateRunning]; got != 4 {
		t.Fatalf("running = %d, want 4", got)
	}
	close(release)
	waitFor(t, 10*time.Second, "all jobs done", func() bool {
		return s.StateCounts()[StateDone] == 4
	})
}

// TestQueueBacklogAndPendingCancel exercises the bounded queue and
// cancellation of a job that never reached a worker.
func TestQueueBacklogAndPendingCancel(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer shutdown(t, s)

	started := make(chan struct{}, 1)
	release := make(chan struct{})
	registerBlocker(t, s.Registry(), "block", started, release)

	if _, err := s.Submit("block", Params{}, "", time.Minute); err != nil {
		t.Fatal(err)
	}
	<-started // worker occupied

	queued, err := s.Submit("table1", Params{}, "", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("table1", Params{}, "", time.Minute); err != nil {
		t.Fatal(err)
	}
	// Queue (depth 2) is full now.
	if _, err := s.Submit("table1", Params{}, "", time.Minute); err != ErrQueueFull {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}

	// Cancel one still-pending job; it must never run.
	v, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateCancelled {
		t.Fatalf("pending cancel state = %s", v.State)
	}
	close(release)
	waitFor(t, 10*time.Second, "backlog to drain", func() bool {
		c := s.StateCounts()
		return c[StateDone] == 2 && c[StateCancelled] == 1
	})
	got, err := s.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled || got.Result != nil {
		t.Fatalf("cancelled pending job ran anyway: %+v", got)
	}
}

// TestJobTimeout verifies the per-job deadline reaches the runner's context.
func TestJobTimeout(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer shutdown(t, s)
	registerBlocker(t, s.Registry(), "block", nil, make(chan struct{}))

	v, err := s.Submit("block", Params{}, "", 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "timeout to fire", func() bool {
		got, err := s.Get(v.ID)
		return err == nil && got.State == StateFailed
	})
	got, _ := s.Get(v.ID)
	if !strings.Contains(got.Error, "timeout") {
		t.Fatalf("error = %q, want a timeout message", got.Error)
	}
}

// TestPanicRecovery verifies a panicking experiment fails its job without
// killing the worker.
func TestPanicRecovery(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer shutdown(t, s)
	if err := s.Registry().Register(Experiment{
		Name:        "panic",
		Description: "test: panics",
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			panic("boom")
		},
	}); err != nil {
		t.Fatal(err)
	}

	v, err := s.Submit("panic", Params{}, "", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "panic job to fail", func() bool {
		got, err := s.Get(v.ID)
		return err == nil && got.State == StateFailed
	})
	got, _ := s.Get(v.ID)
	if !strings.Contains(got.Error, "boom") {
		t.Fatalf("error = %q, want the panic payload", got.Error)
	}

	// The worker survived: the next job still runs.
	v2, err := s.Submit("table1", Params{}, "", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "follow-up job", func() bool {
		got, err := s.Get(v2.ID)
		return err == nil && got.State == StateDone
	})
}

// TestShutdownDrains verifies graceful drain: queued jobs finish, new
// submissions are refused.
func TestShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16})
	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		v, err := s.Submit("table1", Params{}, "", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range ids {
		got, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != StateDone {
			t.Fatalf("job %s not drained: %s", id, got.State)
		}
	}
	if _, err := s.Submit("table1", Params{}, "", time.Minute); err != ErrDraining {
		t.Fatalf("submit after drain: err = %v, want ErrDraining", err)
	}
}

// TestRegistryValidation covers fail-fast submission errors and default
// filling.
func TestRegistryValidation(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Resolve("no-such-experiment", Params{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := reg.Resolve("fig4", Params{Arch: "pentium4"}); err == nil {
		t.Fatal("unknown arch accepted")
	}
	p, err := reg.Resolve("fig7", Params{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	if p.Size != 16 || p.Quality != 80 || p.Images != 2 {
		t.Fatalf("defaults not applied: %+v", p)
	}
	names := make(map[string]bool)
	for _, e := range reg.List() {
		names[e.Name] = true
	}
	for _, want := range []string{"table1", "obs2", "fig4", "readphr", "fig5", "fig6", "table2", "fig7", "aes", "aes_grid", "mitigations"} {
		if !names[want] {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
}

// TestSubmitRejectsOutOfRangeParams: a count or size no driver accepts is
// refused at submission, over the Go API and as HTTP 400. A refused job
// leaves no record and feeds nothing to its experiment's breaker, so a
// valid submission right after is still admitted and runs.
func TestSubmitRejectsOutOfRangeParams(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16, BreakerThreshold: 1})
	defer shutdown(t, s)
	cases := []struct {
		experiment string
		p          Params
	}{
		{"aes", Params{Trials: -1}},
		{"readphr", Params{Trials: -1}},
		{"readphr", Params{Doublets: -1}},
		{"fig4", Params{Doublets: -1}},
		{"obs2", Params{MaxM: -1}},
		{"fig5", Params{Trips: []int{60, -4}}},
		{"fig7", Params{Size: -8}},
		{"fig7", Params{Images: -1}},
		{"fig7", Params{Quality: 1000}},
		{"fig7", Params{Quality: -1}},
	}
	for _, tc := range cases {
		if v, err := s.Submit(tc.experiment, tc.p, "", time.Minute); err == nil {
			t.Errorf("Submit(%s, %+v) admitted %s, want an error", tc.experiment, tc.p, v.ID)
		}
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	// trials -1 is out of range; the strict decoder refuses a parameter the
	// service does not have (a removed one included) the same way.
	for _, params := range []string{`{"trials":-1}`, `{"no_such_param":8}`} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"experiment":"aes","params":`+params+`}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /v1/jobs with params %s: status %d, want 400", params, resp.StatusCode)
		}
	}

	if n := len(s.List(ListFilter{})); n != 0 {
		t.Fatalf("refused submissions left %d jobs", n)
	}
	if b := s.breaker.Snapshot(); len(b) != 0 {
		t.Fatalf("refused submissions moved breakers: %v", b)
	}
	v, err := s.Submit("aes", Params{Trials: 1, Noise: -1}, "", time.Minute)
	if err != nil {
		t.Fatalf("valid aes submission after the refusals: %v", err)
	}
	waitFor(t, 30*time.Second, "valid aes job", func() bool {
		got, err := s.Get(v.ID)
		return err == nil && got.State.Terminal()
	})
	if got, _ := s.Get(v.ID); got.State != StateDone {
		t.Fatalf("valid aes job: state=%s err=%q, want done", got.State, got.Error)
	}
}

// TestAESGridExperiment: aes_grid resolves grid defaults, rejects unknown
// grid archs, and a small 2×2×1 grid runs to completion with one report
// point per cell in arch-major order.
func TestAESGridExperiment(t *testing.T) {
	reg := NewRegistry()
	p, err := reg.Resolve("aes_grid", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Archs) != 1 || p.Archs[0] != "alderlake" || len(p.Seeds) != 1 || len(p.Noises) != 1 {
		t.Fatalf("grid defaults not applied: %+v", p)
	}
	if _, err := reg.Resolve("aes_grid", Params{Archs: []string{"alderlake", "pentium4"}}); err == nil {
		t.Fatal("unknown grid arch accepted")
	}

	s := New(Config{Workers: 1, QueueDepth: 4})
	v, err := s.Submit("aes_grid", Params{
		Trials: 2,
		Archs:  []string{"alderlake", "skylake"},
		Seeds:  []int64{1, 2},
	}, "", 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	shutdown(t, s)
	got, err := s.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("aes_grid job ended %s: %s", got.State, got.Error)
	}
	var rep struct {
		Points []struct {
			Arch string `json:"arch"`
			Seed int64  `json:"seed"`
		} `json:"points"`
	}
	if err := json.Unmarshal(got.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 4 {
		t.Fatalf("grid produced %d points, want 4", len(rep.Points))
	}
	if rep.Points[0].Arch != "Alder Lake" || rep.Points[0].Seed != 1 ||
		rep.Points[3].Arch != "Skylake" || rep.Points[3].Seed != 2 {
		t.Fatalf("grid order wrong: %+v", rep.Points)
	}
}

// TestEndpointsSmall covers the remaining endpoints: experiments listing,
// job listing filters, healthz, and error mapping.
func TestEndpointsSmall(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16})
	defer shutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	status, body := getBody(t, srv.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", status, body)
	}

	status, body = getBody(t, srv.URL+"/v1/experiments")
	if status != http.StatusOK || !strings.Contains(string(body), `"table2"`) {
		t.Fatalf("experiments: %d %s", status, body)
	}

	status, _ = getBody(t, srv.URL+"/v1/jobs/job-999999")
	if status != http.StatusNotFound {
		t.Fatalf("missing job: status %d, want 404", status)
	}

	status, body = postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Experiment: "bogus"})
	if status != http.StatusBadRequest {
		t.Fatalf("bogus experiment: status %d %s", status, body)
	}

	// Explicit job-list batches work too.
	status, body = postJSON(t, srv.URL+"/v1/batch", BatchRequest{Jobs: []SubmitRequest{
		{Experiment: "table1"},
		{Experiment: "readphr", Params: Params{Trials: 1, Doublets: 8}},
	}})
	if status != http.StatusAccepted {
		t.Fatalf("job-list batch: status %d %s", status, body)
	}
	var batchResp struct {
		Batch string `json:"batch"`
		Total int    `json:"total"`
	}
	if err := json.Unmarshal(body, &batchResp); err != nil {
		t.Fatal(err)
	}
	if batchResp.Total != 2 {
		t.Fatalf("batch total = %d, want 2", batchResp.Total)
	}
	waitFor(t, 30*time.Second, "batch completion", func() bool {
		c := s.StateCounts()
		return c[StateDone] == 2
	})

	status, body = getBody(t, srv.URL+"/v1/jobs?experiment=table1")
	if status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	var list struct {
		Total int       `json:"total"`
		Jobs  []JobView `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Total != 1 || list.Jobs[0].Experiment != "table1" {
		t.Fatalf("filtered list: %+v", list)
	}
}
