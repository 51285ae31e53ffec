package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pathfinder/internal/harness"
	"pathfinder/internal/service"
)

// The cluster benchmark: the same AES sweep standalone and sharded over 2
// and 4 workers, plus the micro-cost of fetching a peer's warm snapshot
// over HTTP versus the cold/warm job-level cost of training it.

var benchSweep = service.BatchRequest{
	Experiment: "aes",
	Params:     service.Params{Trials: 8, Noise: -1},
	Sweep: &service.Sweep{
		Archs: []string{"alderlake", "skylake"},
		Seeds: []int64{1, 2, 3, 4, 5, 6},
	},
}

// runBenchStandalone executes the sweep on one service and returns wall time.
func runBenchStandalone(t *testing.T) time.Duration {
	t.Helper()
	harness.ResetWarmCache()
	svc := service.New(service.Config{Workers: 4, QueueDepth: 64})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()
	start := time.Now()
	var resp struct {
		Batch string `json:"batch"`
	}
	if st := postJSON(t, srv.URL+"/v1/batch", benchSweep, &resp); st != http.StatusAccepted {
		t.Fatalf("standalone batch: status %d", st)
	}
	waitReport(t, srv.URL, resp.Batch)
	return time.Since(start)
}

// startBenchNode is startWorkerNode with a bench-grade heartbeat: the
// 20ms cadence the scheduler tests use for snappy lease renewal costs
// ~100 control POSTs per worker per second, which on a shared host drowns
// the per-shape signal the bench is after. 60ms is still 16× faster than
// the production default and well inside the test lease TTL.
func startBenchNode(t *testing.T, coordURL, name string, svcCfg service.Config) *node {
	t.Helper()
	svcCfg.Registry = service.NewRegistry()
	n := &node{svc: service.New(svcCfg)}
	n.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		n.w.Handler().ServeHTTP(rw, r)
	}))
	var err error
	n.w, err = NewWorker(WorkerConfig{
		Name:        name,
		Coordinator: coordURL,
		SelfURL:     n.srv.URL,
		Heartbeat:   60 * time.Millisecond,
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

// runBenchCluster executes the sweep on an n-worker in-process cluster.
// Total sim capacity is held at 4 lanes regardless of n — the nodes share
// one host, so scaling lanes with n would just oversubscribe the machine;
// keeping capacity fixed makes the n-worker columns measure what changes
// with cluster size (dispatch, heartbeats, transport), not core contention.
func runBenchCluster(t *testing.T, n int) time.Duration {
	t.Helper()
	harness.ResetWarmCache()
	// The inflight cap must not bind: each 6-job arch group affinity-routes
	// to one holder, and a cap below the group size turns the sweep tail
	// into done-ack round trips instead of sim work.
	_, csrv := startCoord(t, CoordinatorConfig{Registry: service.NewRegistry(), MaxInflightPerWorker: 12})
	lanes := 4 / n
	if lanes < 1 {
		lanes = 1
	}
	for i := 0; i < n; i++ {
		startBenchNode(t, csrv.URL, fmt.Sprintf("bench-w%d", i),
			service.Config{Workers: lanes, QueueDepth: 64})
	}
	waitWorkers(t, csrv.URL, n)
	start := time.Now()
	var resp struct {
		Batch string `json:"batch"`
	}
	if st := postJSON(t, csrv.URL+"/v1/batch", benchSweep, &resp); st != http.StatusAccepted {
		t.Fatalf("cluster batch: status %d", st)
	}
	waitReport(t, csrv.URL, resp.Batch)
	return time.Since(start)
}

// TestEmitClusterBenchArtifact writes BENCH_cluster.json at the repo root.
// Gated behind an environment variable so regular test runs stay fast:
//
//	PATHFINDER_EMIT_CLUSTER_BENCH=1 go test ./internal/cluster -run TestEmitClusterBenchArtifact -count=1
//
// Caveat recorded in the artifact: in-process "nodes" share one machine, so
// the cluster columns measure scheduling + transport overhead and scaling
// shape, not cross-host speedup.
func TestEmitClusterBenchArtifact(t *testing.T) {
	if os.Getenv("PATHFINDER_EMIT_CLUSTER_BENCH") == "" {
		t.Skip("set PATHFINDER_EMIT_CLUSTER_BENCH=1 to emit BENCH_cluster.json")
	}

	// Best-of-3 per configuration: on a shared (often single-core) CI host
	// the sweep wall time is ±10% noisy, and the minimum is the cleanest
	// estimate of the scheduling+transport overhead each shape adds.
	bestOf := func(runs int, f func() time.Duration) time.Duration {
		best := f()
		for i := 1; i < runs; i++ {
			if d := f(); d < best {
				best = d
			}
		}
		return best
	}
	standalone := bestOf(3, func() time.Duration { return runBenchStandalone(t) })
	cluster2 := bestOf(3, func() time.Duration { return runBenchCluster(t, 2) })
	cluster4 := bestOf(3, func() time.Duration { return runBenchCluster(t, 4) })

	// Job-level cold-vs-warm: on a fresh single-worker cluster the first job
	// of a warm group trains; the second (affinity-routed, same group)
	// restores the shared snapshot.
	harness.ResetWarmCache()
	_, csrv := startCoord(t, CoordinatorConfig{Registry: service.NewRegistry()})
	n := startWorkerNode(t, csrv.URL, "bench-cold", service.NewRegistry(), service.Config{Workers: 2})
	waitWorkers(t, csrv.URL, 1)
	timeJob := func(seed int64) time.Duration {
		var v service.JobView
		start := time.Now()
		postJSON(t, csrv.URL+"/v1/jobs", service.SubmitRequest{
			Experiment: "aes", Params: service.Params{Trials: 8, Noise: -1, Seed: seed},
		}, &v)
		done := waitJobDone(t, csrv.URL, v.ID)
		if done.State != service.StateDone {
			t.Fatalf("bench job seed %d: %s (%s)", seed, done.State, done.Error)
		}
		return time.Since(start)
	}
	coldJob := timeJob(901)
	warmJob := timeJob(902)

	// Micro-cost of the full snapshot exchange: locate via the coordinator,
	// fetch from the holder, decode, hash-verify.
	var warmKey harness.WarmStateKey
	found := false
	for _, s := range harness.WarmSnapshots() {
		if strings.HasPrefix(s.Key.Kind, "aes-warm") {
			warmKey, found = s.Key, true
			break
		}
	}
	if !found {
		t.Fatal("no aes-warm snapshot cached after the bench jobs")
	}
	peer, err := NewWorker(WorkerConfig{
		Name: "bench-peer", Coordinator: csrv.URL, SelfURL: "http://bench-peer.invalid",
	}, n.svc)
	if err != nil {
		t.Fatal(err)
	}
	const fetches = 20
	fetchStart := time.Now()
	for i := 0; i < fetches; i++ {
		if _, ok := peer.fetchWarm(warmKey); !ok {
			t.Fatal("bench snapshot fetch failed")
		}
	}
	fetchNS := time.Since(fetchStart).Nanoseconds() / fetches

	artifact := map[string]any{
		"benchmark":            "12-job AES sweep (trials=8, noise=0) standalone vs in-process cluster; snapshot fetch vs re-train",
		"sweep_jobs":           12,
		"trials":               8,
		"standalone_ns":        standalone.Nanoseconds(),
		"cluster2_ns":          cluster2.Nanoseconds(),
		"cluster4_ns":          cluster4.Nanoseconds(),
		"cold_job_ns":          coldJob.Nanoseconds(),
		"warm_affinity_job_ns": warmJob.Nanoseconds(),
		"snapshot_fetch_ns":    fetchNS,
		"note": "best of 3 runs per configuration, total sim capacity fixed at 4 lanes across cluster shapes; " +
			"in-process nodes share one host and one warm cache, so cluster columns measure " +
			"scheduling+transport overhead and scaling shape, not cross-host speedup; " +
			"cold_job trains phase-1 + per-trial warm state, warm_affinity_job restores it; " +
			"snapshot_fetch_ns is the full locate+HTTP fetch+decode+hash-verify round trip",
	}
	raw, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "BENCH_cluster.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s:\n%s", path, raw)
}
