package cluster

import (
	"context"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"pathfinder/internal/cpu"
	"pathfinder/internal/harness"
	"pathfinder/internal/service"
	"pathfinder/internal/snapstore"
)

// The three /metrics surfaces pathfinderd serves — standalone, coordinator
// and worker — are pinned here in one place, because the worker's surface
// is the standalone one plus the worker families. Each pin drives a fixed
// script that gives every family it expects at least one sample, then checks
// the exposed families exactly: name, TYPE, HELP text and label names, in
// label order. Values are not pinned; the behaviour tests own those.

// famSpec is one metric family as a scrape shows it.
type famSpec struct {
	typ, help string
	labels    []string // label names of its samples; a histogram's le is dropped
}

var serviceFamilies = map[string]famSpec{
	"pathfinderd_jobs":                             {"gauge", "current number of jobs by lifecycle state", []string{"state"}},
	"pathfinderd_queue_depth":                      {"gauge", "jobs waiting in the bounded queue", nil},
	"pathfinderd_workers":                          {"gauge", "size of the worker pool", nil},
	"pathfinderd_jobs_submitted_total":             {"counter", "jobs accepted, by experiment", []string{"experiment"}},
	"pathfinderd_jobs_started_total":               {"counter", "jobs picked up by a worker", nil},
	"pathfinderd_jobs_finished_total":              {"counter", "jobs reaching a terminal state, by experiment and state", []string{"experiment", "state"}},
	"pathfinderd_job_retries_total":                {"counter", "failed attempts re-queued under the retry policy, by experiment", []string{"experiment"}},
	"pathfinderd_job_failures_total":               {"counter", "terminal failures by experiment and class", []string{"experiment", "class"}},
	"pathfinderd_result_cache_hits_total":          {"counter", "jobs served from the result cache, by experiment", []string{"experiment"}},
	"pathfinderd_result_cache_misses_total":        {"counter", "jobs that missed the result cache, by experiment", []string{"experiment"}},
	"pathfinderd_result_cache_dedup_total":         {"counter", "jobs deduplicated onto an identical in-flight run, by experiment", []string{"experiment"}},
	"pathfinderd_result_cache_entries":             {"gauge", "results currently held in the bounded LRU", nil},
	"pathfinderd_jobs_recovered_total":             {"counter", "jobs re-queued from the journal at startup", nil},
	"pathfinderd_breaker_state":                    {"gauge", "per-experiment circuit breaker (0 closed, 1 half-open, 2 open)", []string{"experiment"}},
	"pathfinderd_job_duration_seconds":             {"histogram", "wall time per finished job", []string{"experiment"}},
	"pathfinderd_sim_events_total":                 {"counter", "simulated-machine counters aggregated over finished jobs", []string{"event"}},
	"pathfinderd_sweep_planner_groups_total":       {"counter", "runs of consecutive same-prefix sweep cells executed", nil},
	"pathfinderd_sweep_planner_cells_total":        {"counter", "sweep cells executed", nil},
	"pathfinderd_sweep_planner_shared_cells_total": {"counter", "cells that reused their run's shared warm prefix instead of retraining", nil},
	"pathfinderd_sweep_planner_prefetch_total":     {"counter", "pipelined prefix prefetches from the snapshot store, by result", []string{"result"}},
	"pathfinderd_warmcache_store_requests_total":   {"counter", "warm-cache lookups that fell through to the snapshot store, by result", []string{"result"}},
	"pathfinderd_snapshot_store_ops_total":         {"counter", "on-disk snapshot store operations, by op", []string{"op"}},
	"pathfinderd_snapshot_store_bytes":             {"gauge", "bytes resident in the snapshot store", nil},
	"pathfinderd_snapshot_store_entries":           {"gauge", "snapshots resident in the snapshot store", nil},
}

var coordinatorFamilies = map[string]famSpec{
	"pathfinderd_cluster_workers":                     {"gauge", "live workers (heartbeat within the expiry window)", nil},
	"pathfinderd_cluster_jobs":                        {"gauge", "cluster jobs by lifecycle state", []string{"state"}},
	"pathfinderd_cluster_pending":                     {"gauge", "jobs waiting for assignment", nil},
	"pathfinderd_cluster_worker_inflight":             {"gauge", "leases held per worker", []string{"worker"}},
	"pathfinderd_cluster_warm_keys":                   {"gauge", "snapshot advertisements across live workers", nil},
	"pathfinderd_cluster_jobs_submitted_total":        {"counter", "cluster jobs accepted", nil},
	"pathfinderd_cluster_assignments_total":           {"counter", "accepted assignments, by worker", []string{"worker"}},
	"pathfinderd_cluster_affinity_total":              {"counter", "warm-affinity routing outcomes for jobs whose group has known holders", []string{"outcome"}},
	"pathfinderd_cluster_backpressure_requeues_total": {"counter", "assignments bounced by worker 429s and requeued", nil},
	"pathfinderd_cluster_lease_reassignments_total":   {"counter", "jobs requeued after a lease expired", nil},
	"pathfinderd_cluster_assign_errors_total":         {"counter", "assignments that failed in transport or with a non-429 error", nil},
	"pathfinderd_cluster_peer_breaker_state":          {"gauge", "per-worker circuit breaker (0 closed, 1 half-open, 2 open)", []string{"worker"}},
	"pathfinderd_cluster_assign_failures_total":       {"counter", "assignment failures by RPC failure class", []string{"class"}},
	"pathfinderd_cluster_peer_reports_total":          {"counter", "worker-reported peer failures by class", []string{"class"}},
	"pathfinderd_cluster_quarantines_total":           {"counter", "peer breakers opened (worker quarantined, leases requeued)", nil},
	"pathfinderd_cluster_probes_total":                {"counter", "probe assignments admitted to quarantined workers", nil},
	"pathfinderd_cluster_degraded":                    {"gauge", "gauge: 1 while the coordinator is shedding jobs to in-process execution", nil},
	"pathfinderd_cluster_degraded_runs_total":         {"counter", "jobs completed in-process under degraded mode", nil},
	"pathfinderd_cluster_heartbeats_total":            {"counter", "heartbeats received", nil},
	"pathfinderd_cluster_results_total":               {"counter", "terminal results received, by state", []string{"state"}},
	"pathfinderd_cluster_duplicate_results_total":     {"counter", "results for already-terminal jobs (reassignment races)", nil},
	"pathfinderd_cluster_snapshot_locates_total":      {"counter", "warm-key location lookups, by outcome", []string{"outcome"}},
	"pathfinderd_cluster_cancels_relayed_total":       {"counter", "cancellations relayed to workers via heartbeat replies", nil},
	"pathfinderd_cluster_jobs_recovered_total":        {"counter", "jobs re-queued from the coordinator journal at startup", nil},
}

var workerFamilies = map[string]famSpec{
	"pathfinderd_worker_assignments_total":        {"counter", "cluster assignments accepted", nil},
	"pathfinderd_worker_rejected_total":           {"counter", "cluster assignments bounced with 429 backpressure", nil},
	"pathfinderd_worker_results_pushed_total":     {"counter", "terminal results acked by the coordinator", nil},
	"pathfinderd_worker_snapshot_serves_total":    {"counter", "warm snapshots served to peers", nil},
	"pathfinderd_worker_warm_cache_total":         {"counter", "process warm-cache lookups, by outcome", []string{"outcome"}},
	"pathfinderd_worker_warm_fetch_total":         {"counter", "peer warm-state fetches, by outcome", []string{"outcome"}},
	"pathfinderd_worker_warm_fetch_corrupt_total": {"counter", "peer snapshots rejected by wire/hash verification", nil},
	"pathfinderd_worker_hedge_total":              {"counter", "hedged warm-fetch outcomes: win = non-primary leg delivered", []string{"outcome"}},
	"pathfinderd_worker_retry_budget_total":       {"counter", "retry-budget tokens, by outcome", []string{"outcome"}},
}

// exposedFamilies parses a Prometheus text exposition into the families
// that carry at least one sample. Histogram _bucket/_sum/_count samples
// fold into their family.
func exposedFamilies(t *testing.T, text string) map[string]famSpec {
	t.Helper()
	help, typ := map[string]string{}, map[string]string{}
	got := map[string]famSpec{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, h, _ := strings.Cut(rest, " ")
			help[name] = h
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, ty, _ := strings.Cut(rest, " ")
			typ[name] = ty
			continue
		}
		series, _, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		name, labelText, _ := strings.Cut(series, "{")
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && typ[base] == "histogram" {
				name = base
			}
		}
		var labels []string
		for _, pair := range strings.Split(strings.TrimSuffix(labelText, "}"), ",") {
			if k, _, ok := strings.Cut(pair, "="); ok && k != "le" {
				labels = append(labels, k)
			}
		}
		spec := famSpec{typ: typ[name], help: help[name], labels: labels}
		if prev, seen := got[name]; seen && !reflect.DeepEqual(prev, spec) {
			t.Errorf("family %s: samples disagree: %+v vs %+v", name, prev, spec)
		}
		got[name] = spec
	}
	return got
}

// checkFamilies asserts the exposition shows exactly the wanted families.
func checkFamilies(t *testing.T, text string, want map[string]famSpec) {
	t.Helper()
	got := exposedFamilies(t, text)
	for _, name := range slices.Sorted(maps.Keys(want)) {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("family %s has no samples", name)
		case !reflect.DeepEqual(g, want[name]):
			t.Errorf("family %s = %+v, want %+v", name, g, want[name])
		}
	}
	for _, name := range slices.Sorted(maps.Keys(got)) {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected family %s", name)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}

// union merges family tables, dropping the named families.
func union(drop []string, tables ...map[string]famSpec) map[string]famSpec {
	out := map[string]famSpec{}
	for _, tab := range tables {
		for k, v := range tab {
			out[k] = v
		}
	}
	for _, k := range drop {
		delete(out, k)
	}
	return out
}

func scrapeText(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	return rec.Body.String()
}

// pollUntil retries cond every 10ms for up to 10s.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStandaloneMetricsPinned scripts a standalone service through a cache
// miss and hit, a retried terminal failure, a deduplicated pair of
// identical runs, all with a snapshot store installed.
func TestStandaloneMetricsPinned(t *testing.T) {
	st, err := snapstore.Open(t.TempDir(), snapstore.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	harness.SetSnapStore(st)
	defer harness.SetSnapStore(nil)

	reg := ctestRegistry()
	release := make(chan struct{})
	for _, e := range []service.Experiment{
		{Name: "pin-fail", Description: "pin: always fails", Run: func(context.Context, service.Params) (any, cpu.Counters, error) {
			return nil, cpu.Counters{}, errors.New("pinned failure")
		}},
		{Name: "pin-block", Description: "pin: parks until released", Run: func(ctx context.Context, _ service.Params) (any, cpu.Counters, error) {
			select {
			case <-release:
				return "released", cpu.Counters{Runs: 1}, nil
			case <-ctx.Done():
				return nil, cpu.Counters{}, ctx.Err()
			}
		}},
	} {
		if err := reg.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	svc := service.New(service.Config{
		Registry: reg, Workers: 3, QueueDepth: 16,
		MaxAttempts: 2, RetryBackoff: time.Millisecond, ResultCacheSize: 8,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()
	h := svc.Handler()
	submit := func(exp string) string {
		v, err := svc.Submit(exp, service.Params{Seed: 1}, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		return v.ID
	}
	finished := func(id string) func() bool {
		return func() bool {
			v, err := svc.Get(id)
			return err == nil && v.State != service.StatePending && v.State != service.StateRunning
		}
	}

	for i := 0; i < 2; i++ { // a miss, then a hit
		id := submit("ctest")
		pollUntil(t, id, finished(id))
	}
	fail := submit("pin-fail")
	pollUntil(t, fail, finished(fail))
	a, b := submit("pin-block"), submit("pin-block")
	pollUntil(t, "dedup", func() bool {
		return strings.Contains(scrapeText(t, h), "pathfinderd_result_cache_dedup_total{")
	})
	close(release)
	pollUntil(t, a, finished(a))
	pollUntil(t, b, finished(b))

	checkFamilies(t, scrapeText(t, h), serviceFamilies)
}

// TestCoordinatorMetricsPinned scripts a coordinator through an assignment
// that fails in transport, a sweep run by a live worker and a peer report.
func TestCoordinatorMetricsPinned(t *testing.T) {
	c, csrv := startCoord(t, CoordinatorConfig{})
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	if st := postJSON(t, csrv.URL+"/v1/cluster/heartbeat", Heartbeat{Worker: "dead", Addr: dead.URL}, nil); st != http.StatusOK {
		t.Fatalf("heartbeat: status %d", st)
	}
	if _, err := c.Submit("ctest", service.Params{Seed: 1}, "", 0); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "a failed assignment", func() bool {
		return strings.Contains(scrapeText(t, c.Handler()), "pathfinderd_cluster_assign_failures_total{")
	})

	startWorkerNode(t, csrv.URL, "w0", ctestRegistry(), service.Config{})
	var resp struct {
		Batch string `json:"batch"`
	}
	if st := postJSON(t, csrv.URL+"/v1/batch", sweepReq, &resp); st != http.StatusAccepted {
		t.Fatalf("batch submit: status %d", st)
	}
	waitReport(t, csrv.URL, resp.Batch)
	if st := postJSON(t, csrv.URL+"/v1/cluster/report-peer", PeerReport{From: "w0", Peer: "dead", Class: "corrupt"}, nil); st != http.StatusOK {
		t.Fatalf("peer report: status %d", st)
	}

	checkFamilies(t, scrapeText(t, c.Handler()), coordinatorFamilies)
}

// TestWorkerMetricsPinned runs a sweep through one worker and pins its
// scrape: the wrapped service's families the sweep touches plus the
// worker's own.
func TestWorkerMetricsPinned(t *testing.T) {
	_, csrv := startCoord(t, CoordinatorConfig{})
	n := startWorkerNode(t, csrv.URL, "w0", ctestRegistry(), service.Config{})
	var resp struct {
		Batch string `json:"batch"`
	}
	if st := postJSON(t, csrv.URL+"/v1/batch", sweepReq, &resp); st != http.StatusAccepted {
		t.Fatalf("batch submit: status %d", st)
	}
	waitReport(t, csrv.URL, resp.Batch)

	// No failures, no result cache and no snapshot store on this worker.
	untouched := []string{
		"pathfinderd_job_retries_total", "pathfinderd_job_failures_total",
		"pathfinderd_result_cache_hits_total", "pathfinderd_result_cache_misses_total",
		"pathfinderd_result_cache_dedup_total", "pathfinderd_breaker_state",
		"pathfinderd_snapshot_store_ops_total", "pathfinderd_snapshot_store_bytes",
		"pathfinderd_snapshot_store_entries",
	}
	checkFamilies(t, scrapeText(t, n.w.Handler()), union(untouched, serviceFamilies, workerFamilies))
}
