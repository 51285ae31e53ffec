package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pathfinder/internal/cpu"
	"pathfinder/internal/harness"
	"pathfinder/internal/service"
	"pathfinder/internal/snapstore"
)

// ctestRegistry returns a registry extended with a fast, deterministic
// experiment: the scheduler tests need real job flow without simulator
// runtime.
func ctestRegistry() *service.Registry {
	r := service.NewRegistry()
	err := r.Register(service.Experiment{
		Name:        "ctest",
		Description: "cluster-test: deterministic function of (arch, seed)",
		Run: func(ctx context.Context, p service.Params) (any, cpu.Counters, error) {
			if err := ctx.Err(); err != nil {
				return nil, cpu.Counters{}, err
			}
			return struct {
				Arch  string `json:"arch"`
				Seed  int64  `json:"seed"`
				Value int64  `json:"value"`
			}{p.Arch, p.Seed, p.Seed*31 + int64(len(p.Arch))}, cpu.Counters{Runs: 1}, nil
		},
	})
	if err != nil {
		panic(err)
	}
	return r
}

// startCoord starts a coordinator with test-speed timing and serves it.
func startCoord(t *testing.T, cfg CoordinatorConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = ctestRegistry()
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 500 * time.Millisecond
	}
	if cfg.DispatchEvery == 0 {
		cfg.DispatchEvery = 10 * time.Millisecond
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	return c, srv
}

// node is one in-process worker: a wrapped service plus its HTTP server.
type node struct {
	w   *Worker
	svc *service.Service
	srv *httptest.Server
}

// startWorkerNode builds a worker around a fresh service and joins it to
// the coordinator at coordURL.
func startWorkerNode(t *testing.T, coordURL, name string, reg *service.Registry, svcCfg service.Config) *node {
	t.Helper()
	svcCfg.Registry = reg
	if svcCfg.Workers == 0 {
		svcCfg.Workers = 2
	}
	if svcCfg.QueueDepth == 0 {
		svcCfg.QueueDepth = 32
	}
	n := &node{svc: service.New(svcCfg)}
	// The handler needs the worker, the worker needs the server URL: a lazy
	// handler breaks the cycle (no request arrives before Start anyway).
	n.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		n.w.Handler().ServeHTTP(rw, r)
	}))
	var err error
	n.w, err = NewWorker(WorkerConfig{
		Name:        name,
		Coordinator: coordURL,
		SelfURL:     n.srv.URL,
		Heartbeat:   20 * time.Millisecond,
	}, n.svc)
	if err != nil {
		t.Fatal(err)
	}
	n.w.Start()
	t.Cleanup(func() {
		n.w.Stop()
		n.srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = n.svc.Shutdown(ctx)
	})
	return n
}

func postJSON(t *testing.T, url string, body, out any) int {
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
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitReport polls the canonical report endpoint until the batch finishes.
func waitReport(t *testing.T, base, batch string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/batch/" + batch + "/report")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return raw
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("batch %s never completed", batch)
	return nil
}

// waitJobDone polls one job until terminal, returning its final view.
func waitJobDone(t *testing.T, base, id string) service.JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var v service.JobView
		if st := getJSON(t, base+"/v1/jobs/"+id, &v); st == http.StatusOK && v.State.Terminal() {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return service.JobView{}
}

// waitWorkers polls /cluster/status until n workers have joined.
func waitWorkers(t *testing.T, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var sv StatusView
		if st := getJSON(t, base+"/cluster/status", &sv); st == http.StatusOK && len(sv.Workers) >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("cluster never reached %d workers", n)
}

// scrapeMetric extracts one sample from a Prometheus text exposition.
func scrapeMetric(t *testing.T, url, metric string) float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(metric) + ` ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(string(raw))
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: bad sample %q", metric, m[1])
	}
	return v
}

var sweepReq = service.BatchRequest{
	Experiment: "ctest",
	Sweep: &service.Sweep{
		Archs: []string{"alderlake", "skylake"},
		Seeds: []int64{1, 2, 3},
	},
}

// TestClusterSweepReportMatchesStandalone is the tentpole acceptance
// criterion: the coordinator's canonical batch report over 1, 2 and 4
// workers is byte-identical to the standalone service's report for the
// same sweep.
func TestClusterSweepReportMatchesStandalone(t *testing.T) {
	svc := service.New(service.Config{Registry: ctestRegistry(), Workers: 2, QueueDepth: 32})
	ssrv := httptest.NewServer(svc.Handler())
	defer ssrv.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()

	var sresp struct {
		Batch string `json:"batch"`
	}
	if st := postJSON(t, ssrv.URL+"/v1/batch", sweepReq, &sresp); st != http.StatusAccepted {
		t.Fatalf("standalone batch submit: status %d", st)
	}
	want := waitReport(t, ssrv.URL, sresp.Batch)

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, csrv := startCoord(t, CoordinatorConfig{})
			for i := 0; i < workers; i++ {
				startWorkerNode(t, csrv.URL, fmt.Sprintf("w%d", i), ctestRegistry(), service.Config{})
			}
			var cresp struct {
				Batch string `json:"batch"`
			}
			if st := postJSON(t, csrv.URL+"/v1/batch", sweepReq, &cresp); st != http.StatusAccepted {
				t.Fatalf("cluster batch submit: status %d", st)
			}
			got := waitReport(t, csrv.URL, cresp.Batch)
			if !bytes.Equal(got, want) {
				t.Errorf("cluster report (%d workers) diverges from standalone:\ngot:  %s\nwant: %s",
					workers, got, want)
			}
		})
	}
}

// TestClusterAffinityRouting: after one job of a (experiment, arch, noise)
// group completes on a worker, subsequent jobs of the group route to that
// worker and the affinity-hit metric records it.
func TestClusterAffinityRouting(t *testing.T) {
	_, csrv := startCoord(t, CoordinatorConfig{MaxInflightPerWorker: 8})
	for i := 0; i < 3; i++ {
		startWorkerNode(t, csrv.URL, fmt.Sprintf("w%d", i), ctestRegistry(), service.Config{})
	}
	waitWorkers(t, csrv.URL, 3)

	var v service.JobView
	postJSON(t, csrv.URL+"/v1/jobs", service.SubmitRequest{
		Experiment: "ctest", Params: service.Params{Arch: "alderlake", Seed: 1},
	}, &v)
	first := waitJobDone(t, csrv.URL, v.ID)
	if first.Worker == "" {
		t.Fatal("finished job reports no worker")
	}

	for seed := int64(2); seed <= 5; seed++ {
		postJSON(t, csrv.URL+"/v1/jobs", service.SubmitRequest{
			Experiment: "ctest", Params: service.Params{Arch: "alderlake", Seed: seed},
		}, &v)
		done := waitJobDone(t, csrv.URL, v.ID)
		if done.Worker != first.Worker {
			t.Errorf("seed %d ran on %s, want affinity to %s", seed, done.Worker, first.Worker)
		}
	}
	if hits := scrapeMetric(t, csrv.URL+"/metrics", `pathfinderd_cluster_affinity_total{outcome="hit"}`); hits < 4 {
		t.Errorf("affinity hits = %v, want >= 4", hits)
	}
}

// TestClusterBackpressure429Requeue: a worker with a tiny queue bounces
// excess assignments with 429; the coordinator requeues them and the whole
// burst still completes.
func TestClusterBackpressure429Requeue(t *testing.T) {
	release := make(chan struct{})
	gateReg := func(blocking bool) *service.Registry {
		r := ctestRegistry()
		if err := r.Register(service.Experiment{
			Name:        "gate",
			Description: "blocks until released",
			Run: func(ctx context.Context, p service.Params) (any, cpu.Counters, error) {
				if blocking {
					select {
					case <-release:
					case <-ctx.Done():
						return nil, cpu.Counters{}, ctx.Err()
					}
				}
				return struct {
					Seed int64 `json:"seed"`
				}{p.Seed}, cpu.Counters{}, nil
			},
		}); err != nil {
			t.Fatal(err)
		}
		return r
	}

	_, csrv := startCoord(t, CoordinatorConfig{Registry: gateReg(false), MaxInflightPerWorker: 6})
	startWorkerNode(t, csrv.URL, "w0", gateReg(true), service.Config{Workers: 1, QueueDepth: 1})
	waitWorkers(t, csrv.URL, 1)

	req := service.BatchRequest{Experiment: "gate", Jobs: make([]service.SubmitRequest, 6)}
	for i := range req.Jobs {
		req.Jobs[i] = service.SubmitRequest{Experiment: "gate", Params: service.Params{Seed: int64(i + 1)}}
	}
	var resp struct {
		Batch string `json:"batch"`
	}
	if st := postJSON(t, csrv.URL+"/v1/batch", req, &resp); st != http.StatusAccepted {
		t.Fatalf("batch submit: status %d", st)
	}

	// Give the dispatcher time to hit the wall, then open the gate.
	deadline := time.Now().Add(10 * time.Second)
	for scrapeMetric(t, csrv.URL+"/metrics", "pathfinderd_cluster_backpressure_requeues_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("backpressure requeues never happened")
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(release)

	report := waitReport(t, csrv.URL, resp.Batch)
	var rep service.Report
	if err := json.Unmarshal(report, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ByState[service.StateDone] != 6 {
		t.Errorf("by_state = %v, want 6 done", rep.ByState)
	}
}

// TestClusterLeaseReassignment: a worker that stops heartbeating while
// holding a job loses the lease; the job is reassigned to a live worker and
// completes there.
func TestClusterLeaseReassignment(t *testing.T) {
	gateReg := func(wedged bool) *service.Registry {
		r := ctestRegistry()
		if err := r.Register(service.Experiment{
			Name:        "gate",
			Description: "wedges on one worker only",
			Run: func(ctx context.Context, p service.Params) (any, cpu.Counters, error) {
				if wedged {
					<-ctx.Done()
					return nil, cpu.Counters{}, ctx.Err()
				}
				return struct {
					Seed int64 `json:"seed"`
				}{p.Seed}, cpu.Counters{}, nil
			},
		}); err != nil {
			t.Fatal(err)
		}
		return r
	}

	_, csrv := startCoord(t, CoordinatorConfig{
		Registry:     gateReg(false),
		LeaseTTL:     150 * time.Millisecond,
		WorkerExpiry: 250 * time.Millisecond,
	})
	// Sorted-name tie-breaking pins the first assignment onto "a-wedged".
	wedged := startWorkerNode(t, csrv.URL, "a-wedged", gateReg(true), service.Config{})
	startWorkerNode(t, csrv.URL, "b-live", gateReg(false), service.Config{})
	waitWorkers(t, csrv.URL, 2)

	var v service.JobView
	postJSON(t, csrv.URL+"/v1/jobs", service.SubmitRequest{
		Experiment: "gate", Params: service.Params{Seed: 7},
	}, &v)

	// Wait for the wedged worker to actually hold the job, then kill its
	// heartbeats (the simulated node death).
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := wedged.svc.List(service.ListFilter{}), error(nil)
		_ = err
		if len(got) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("wedged worker never received the job")
		}
		time.Sleep(10 * time.Millisecond)
	}
	wedged.w.Stop()

	done := waitJobDone(t, csrv.URL, v.ID)
	if done.State != service.StateDone {
		t.Fatalf("job state %s (%s), want done", done.State, done.Error)
	}
	if done.Worker != "b-live" {
		t.Errorf("job finished on %q, want reassignment to b-live", done.Worker)
	}
	if n := scrapeMetric(t, csrv.URL+"/metrics", "pathfinderd_cluster_lease_reassignments_total"); n < 1 {
		t.Errorf("lease reassignments = %v, want >= 1", n)
	}
}

// TestClusterSnapshotExchange drives the full content-addressed exchange
// over HTTP: a worker trains AES warm state, advertises it, and a peer
// resolves the key through the coordinator and fetches the snapshot,
// hash-verified end to end.
func TestClusterSnapshotExchange(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	_, csrv := startCoord(t, CoordinatorConfig{Registry: service.NewRegistry()})
	n := startWorkerNode(t, csrv.URL, "w0", service.NewRegistry(), service.Config{})
	waitWorkers(t, csrv.URL, 1)

	var v service.JobView
	postJSON(t, csrv.URL+"/v1/jobs", service.SubmitRequest{
		Experiment: "aes", Params: service.Params{Trials: 2, Noise: -1, Seed: 201},
	}, &v)
	if done := waitJobDone(t, csrv.URL, v.ID); done.State != service.StateDone {
		t.Fatalf("aes job state %s: %s", done.State, done.Error)
	}

	// The warm ad surfaces on the next heartbeat.
	var key string
	deadline := time.Now().Add(10 * time.Second)
	for key == "" {
		var sv StatusView
		getJSON(t, csrv.URL+"/cluster/status", &sv)
		for _, w := range sv.Workers {
			for _, k := range w.WarmKeys {
				if strings.HasPrefix(k, "aes-warm|") {
					key = k
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never advertised an aes-warm snapshot")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A second (peer) worker resolves the key and fetches the snapshot.
	peer, err := NewWorker(WorkerConfig{
		Name: "peer", Coordinator: csrv.URL, SelfURL: "http://peer.invalid",
	}, n.svc)
	if err != nil {
		t.Fatal(err)
	}
	wk, err := harness.ParseWarmStateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := peer.fetchWarm(wk)
	if !ok {
		t.Fatal("peer fetch failed")
	}
	local, ok := harness.LookupWarmSnapshot(wk)
	if !ok {
		t.Fatal("advertised snapshot missing from the local cache")
	}
	if snap.Hash() != local.Hash() {
		t.Fatalf("fetched snapshot hash %#x, want %#x", snap.Hash(), local.Hash())
	}
	if serves := scrapeMetric(t, n.srv.URL+"/metrics", "pathfinderd_worker_snapshot_serves_total"); serves < 1 {
		t.Errorf("snapshot serves = %v, want >= 1", serves)
	}
}

// TestClusterAESAffinitySkipsTraining: the second AES job of a warm group
// routes to the worker that trained the group and restores warm state
// instead of re-training.
func TestClusterAESAffinitySkipsTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	_, csrv := startCoord(t, CoordinatorConfig{Registry: service.NewRegistry()})
	startWorkerNode(t, csrv.URL, "w0", service.NewRegistry(), service.Config{})
	startWorkerNode(t, csrv.URL, "w1", service.NewRegistry(), service.Config{})
	waitWorkers(t, csrv.URL, 2)

	var v service.JobView
	postJSON(t, csrv.URL+"/v1/jobs", service.SubmitRequest{
		Experiment: "aes", Params: service.Params{Trials: 2, Noise: -1, Seed: 301},
	}, &v)
	first := waitJobDone(t, csrv.URL, v.ID)
	if first.State != service.StateDone {
		t.Fatalf("first aes job: %s (%s)", first.State, first.Error)
	}

	hits0, _ := harness.WarmCacheStats()
	postJSON(t, csrv.URL+"/v1/jobs", service.SubmitRequest{
		Experiment: "aes", Params: service.Params{Trials: 2, Noise: -1, Seed: 302},
	}, &v)
	second := waitJobDone(t, csrv.URL, v.ID)
	if second.State != service.StateDone {
		t.Fatalf("second aes job: %s (%s)", second.State, second.Error)
	}
	if second.Worker != first.Worker {
		t.Errorf("second job ran on %q, want affinity to %q", second.Worker, first.Worker)
	}
	// Every trial looks the shared "aes-warm" snapshot up once, so a job
	// contributes one hit per trial that restores it. The phase-1 key is
	// seed-specific and misses on every new job by design; the shared
	// snapshot hitting at all is what proves the affinity-routed job
	// restored instead of re-warming.
	hits1, _ := harness.WarmCacheStats()
	if hits1 < hits0+1 {
		t.Errorf("warm hits %d -> %d; the affinity-routed job re-trained instead of restoring", hits0, hits1)
	}
	if hits := scrapeMetric(t, csrv.URL+"/metrics", `pathfinderd_cluster_affinity_total{outcome="hit"}`); hits < 1 {
		t.Errorf("affinity hits = %v, want >= 1", hits)
	}
}

// TestCoordinatorJournalRecovery: pending jobs submitted before a
// coordinator restart are replayed, re-dispatched and complete under the
// new incarnation, with ID sequences resuming past the replayed maximum; a
// job that finished before the restart keeps its result bytes.
func TestCoordinatorJournalRecovery(t *testing.T) {
	dir := t.TempDir()

	c1, err := NewCoordinator(CoordinatorConfig{Registry: ctestRegistry(), DataDir: dir, DispatchEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// A worker's result push finishes one job before the restart.
	early, err := c1.Submit("ctest", service.Params{Seed: 7}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	result := json.RawMessage(`{"arch":"alderlake","seed":7,"value":226}`)
	c1.handleResults(ResultsPush{Worker: "w0", Results: []JobResult{{
		ID: early.ID, State: service.StateDone, Result: result, Stats: &cpu.Counters{Runs: 1}, Attempts: 1,
	}}})
	batch, views, err := c1.SubmitSweep("ctest", service.Params{}, []string{"alderlake"}, []int64{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 {
		t.Fatalf("submitted %d jobs, want 3", len(views))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := c1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	c2, csrv := startCoord(t, CoordinatorConfig{Registry: ctestRegistry(), DataDir: dir})
	got, err := c2.Get(early.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != service.StateDone || !bytes.Equal(got.Result, result) || got.SimStats == nil || got.SimStats.Runs != 1 {
		t.Errorf("finished job across restart = state %s result %s stats %v, want done %s runs=1",
			got.State, got.Result, got.SimStats, result)
	}
	startWorkerNode(t, csrv.URL, "w0", ctestRegistry(), service.Config{})
	report := waitReport(t, csrv.URL, batch)
	var rep service.Report
	if err := json.Unmarshal(report, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Total != 3 || rep.ByState[service.StateDone] != 3 {
		t.Fatalf("recovered batch report: total %d, by_state %v", rep.Total, rep.ByState)
	}
	// Sequence numbers resume past the replayed jobs: no ID reuse.
	v, err := c2.Submit("ctest", service.Params{Seed: 9}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range append(views, early) {
		if v.ID == old.ID {
			t.Fatalf("restarted coordinator reused job ID %s", v.ID)
		}
	}
}

// TestCoordinatorCompactsOversizedJournal: a coordinator restarted on a
// journal past the 4 MiB compaction trigger rewrites it smaller and replays
// the same job table — finished jobs intact, queued jobs queued, the ID
// sequence resuming.
func TestCoordinatorCompactsOversizedJournal(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCoordinator(CoordinatorConfig{Registry: ctestRegistry(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, views, err := c1.SubmitSweep("ctest", service.Params{}, []string{"alderlake", "skylake"}, []int64{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c1.handleResults(ResultsPush{Worker: "w0", Results: []JobResult{
		{ID: views[0].ID, State: service.StateDone, Result: json.RawMessage(`{"value":1}`), Stats: &cpu.Counters{Runs: 1}},
		{ID: views[1].ID, State: service.StateDone, Result: json.RawMessage(`{"value":2}`)},
	}})
	if _, err := c1.Cancel(views[2].ID); err != nil {
		t.Fatal(err)
	}
	want := c1.List(service.ListFilter{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := c1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	// Pad the journal past the trigger with assignment chatter, which replay
	// treats as history only.
	path := filepath.Join(dir, "coordinator.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	pad := fmt.Sprintf(`{"op":"requeue","job":%q,"time":"2026-10-17T01:01:27.412901352Z","worker":"w0","reason":"lease expired"}`+"\n", views[3].ID)
	_, err = f.WriteString(strings.Repeat(pad, (4<<20)/len(pad)+1))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 4<<20 {
		t.Fatalf("padded journal is %d bytes, below the trigger", fi.Size())
	}

	c2, err := NewCoordinator(CoordinatorConfig{Registry: ctestRegistry(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c2.Shutdown(ctx)
	})
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= 64<<10 {
		t.Errorf("restart did not compact the journal: %d -> %d bytes", fi.Size(), after.Size())
	}
	got := c2.List(service.ListFilter{})
	if len(got) != len(want) {
		t.Fatalf("replayed %d jobs, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID || g.Experiment != w.Experiment || !reflect.DeepEqual(g.Params, w.Params) || g.Batch != w.Batch ||
			g.State != w.State || !bytes.Equal(g.Result, w.Result) || g.Error != w.Error ||
			!reflect.DeepEqual(g.SimStats, w.SimStats) {
			t.Errorf("job %d across compacting restart:\ngot:  %+v\nwant: %+v", i, g, w)
		}
	}
	v, err := c2.Submit("ctest", service.Params{Seed: 9}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "cjob-000006" {
		t.Errorf("post-compaction submit got %s, want cjob-000006", v.ID)
	}
}

// TestClusterCancelPropagates: cancelling an assigned job reaches the
// worker through the heartbeat reply and the job finalizes cancelled.
func TestClusterCancelPropagates(t *testing.T) {
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	gateReg := func(blocking bool) *service.Registry {
		r := ctestRegistry()
		if err := r.Register(service.Experiment{
			Name:        "gate",
			Description: "blocks until released or cancelled",
			Run: func(ctx context.Context, p service.Params) (any, cpu.Counters, error) {
				if blocking {
					select {
					case <-release:
					case <-ctx.Done():
						return nil, cpu.Counters{}, ctx.Err()
					}
				}
				return struct {
					Seed int64 `json:"seed"`
				}{p.Seed}, cpu.Counters{}, nil
			},
		}); err != nil {
			t.Fatal(err)
		}
		return r
	}

	_, csrv := startCoord(t, CoordinatorConfig{Registry: gateReg(false)})
	startWorkerNode(t, csrv.URL, "w0", gateReg(true), service.Config{})
	waitWorkers(t, csrv.URL, 1)

	var v service.JobView
	postJSON(t, csrv.URL+"/v1/jobs", service.SubmitRequest{
		Experiment: "gate", Params: service.Params{Seed: 3},
	}, &v)

	// Wait until it is running on the worker, then cancel at the coordinator.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur service.JobView
		getJSON(t, csrv.URL+"/v1/jobs/"+v.ID, &cur)
		if cur.State == service.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached running")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := postJSON(t, csrv.URL+"/v1/jobs/"+v.ID+"/cancel", struct{}{}, nil); st != http.StatusOK {
		t.Fatalf("cancel: status %d", st)
	}
	done := waitJobDone(t, csrv.URL, v.ID)
	if done.State != service.StateCancelled {
		t.Errorf("state = %s, want cancelled", done.State)
	}
}

// TestWorkerAdvertisesAndServesStoreSnapshots: a worker given a persistent
// snapshot store advertises disk-resident keys the in-memory warm cache has
// never held, and serves their snapshot blobs to peers straight from disk —
// the property that makes warm affinity survive a daemon restart.
func TestWorkerAdvertisesAndServesStoreSnapshots(t *testing.T) {
	st, err := snapstore.Open(t.TempDir(), snapstore.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	m := cpu.New(cpu.Options{Seed: 7})
	snap := m.Snapshot()
	const key = "cluster-store-test|Alder Lake|194|0000000000000abc|7|0"
	st.Save(key, snap, nil)
	wantHash := fmt.Sprintf("%016x", snap.Hash())

	svc := service.New(service.Config{Workers: 1, QueueDepth: 4})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()
	// The worker is never Started: advertisements and the snapshot routes
	// must work without a live heartbeat loop.
	w, err := NewWorker(WorkerConfig{
		Name: "disk", Coordinator: "http://coord.invalid", SelfURL: "http://self.invalid",
		SnapStore: st,
	}, svc)
	if err != nil {
		t.Fatal(err)
	}

	found := false
	for _, ad := range w.advertisements() {
		if ad.Key == key {
			found = true
			if ad.Hash != wantHash {
				t.Errorf("advertised hash %s, want %s", ad.Hash, wantHash)
			}
		}
	}
	if !found {
		t.Fatal("disk-resident key missing from warm advertisements")
	}

	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	var index struct {
		Snapshots []struct {
			Key  string `json:"key"`
			Hash string `json:"hash"`
		} `json:"snapshots"`
	}
	getJSON(t, srv.URL+"/snapshots", &index)
	found = false
	for _, e := range index.Snapshots {
		found = found || e.Key == key
	}
	if !found {
		t.Fatal("disk-resident key missing from /snapshots index")
	}

	if _, ok := harness.LookupWarmSnapshot(harness.WarmStateKey{Kind: "cluster-store-test"}); ok {
		t.Fatal("test key unexpectedly resident in the warm cache")
	}
	resp, err := http.Get(srv.URL + "/snapshots/" + wantHash)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot download: status %d, err %v", resp.StatusCode, err)
	}
	got, err := cpu.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != snap.Hash() {
		t.Fatalf("served snapshot hash %#x, want %#x", got.Hash(), snap.Hash())
	}
}

// TestDispatchBatchesAssignments: the coordinator sends one POST
// /v1/cluster/runs per destination worker per dispatch pass — not one
// POST per job — and never uses the legacy single-assignment route.
func TestDispatchBatchesAssignments(t *testing.T) {
	c, csrv := startCoord(t, CoordinatorConfig{Registry: ctestRegistry(), MaxInflightPerWorker: 8})

	// Submit the whole sweep before any worker joins, so the first dispatch
	// pass with a live worker sees every job pending at once.
	batch, views, err := c.SubmitSweep("ctest", service.Params{}, []string{"alderlake"}, []int64{1, 2, 3, 4, 5, 6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 6 {
		t.Fatalf("submitted %d jobs, want 6", len(views))
	}

	var mu sync.Mutex
	var singles, batchPosts, maxBatch int
	n := &node{svc: service.New(service.Config{Registry: ctestRegistry(), Workers: 2, QueueDepth: 32})}
	n.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/cluster/run" {
			mu.Lock()
			singles++
			mu.Unlock()
		}
		if r.Method == http.MethodPost && r.URL.Path == "/v1/cluster/runs" {
			raw, _ := io.ReadAll(r.Body)
			var rb RunBatch
			_ = json.Unmarshal(raw, &rb)
			mu.Lock()
			batchPosts++
			if len(rb.Jobs) > maxBatch {
				maxBatch = len(rb.Jobs)
			}
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(raw))
		}
		n.w.Handler().ServeHTTP(rw, r)
	}))
	n.w, err = NewWorker(WorkerConfig{
		Name: "w0", Coordinator: csrv.URL, SelfURL: n.srv.URL,
		Heartbeat: 20 * time.Millisecond,
	}, n.svc)
	if err != nil {
		t.Fatal(err)
	}
	n.w.Start()
	t.Cleanup(func() {
		n.w.Stop()
		n.srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = n.svc.Shutdown(ctx)
	})

	report := waitReport(t, csrv.URL, batch)
	var rep service.Report
	if err := json.Unmarshal(report, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ByState[service.StateDone] != 6 {
		t.Fatalf("by_state = %v, want 6 done", rep.ByState)
	}
	mu.Lock()
	defer mu.Unlock()
	if singles != 0 {
		t.Errorf("legacy /v1/cluster/run posts = %d, want 0", singles)
	}
	if batchPosts == 0 {
		t.Fatal("no batched assignment posts observed")
	}
	if maxBatch < 4 {
		t.Errorf("largest assignment batch carried %d jobs, want >= 4", maxBatch)
	}
}
