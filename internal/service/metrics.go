package service

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"pathfinder/internal/cpu"
	"pathfinder/internal/harness"
)

// durationBuckets are the latency histogram upper bounds in seconds.
// Experiments span ~1ms (table1) to minutes (full fig7), so the buckets
// cover five decades.
var durationBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120}

// histogram is a fixed-bucket latency histogram (cumulative on exposition,
// per-bucket internally).
type histogram struct {
	counts []uint64 // len(durationBuckets)+1; last is +Inf
	sum    float64
	n      uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(durationBuckets)+1)}
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(durationBuckets, seconds)
	h.counts[i]++
	h.sum += seconds
	h.n++
}

// Metrics aggregates service-level observability: job counts by state and
// experiment, queue/worker gauges, per-experiment latency histograms, and
// the simulated-machine counters (cycles, mispredicts, ...) summed over
// every finished job. Exposition is Prometheus text format, hand-rolled so
// the repo stays stdlib-only.
type Metrics struct {
	mu        sync.Mutex
	workers   int
	submitted map[string]uint64 // by experiment
	started   uint64
	finished  map[string]map[State]uint64 // by experiment, terminal state
	latency   map[string]*histogram       // by experiment
	retried   map[string]uint64           // by experiment
	failures  map[string]map[failureClass]uint64
	recovered uint64
	sim       cpu.Counters

	rcHits   map[string]uint64 // result-cache hits, by experiment
	rcMisses map[string]uint64 // result-cache misses, by experiment
	rcDedup  map[string]uint64 // jobs deduplicated onto an in-flight run
}

func newMetrics(workers int) *Metrics {
	return &Metrics{
		workers:   workers,
		submitted: make(map[string]uint64),
		finished:  make(map[string]map[State]uint64),
		latency:   make(map[string]*histogram),
		retried:   make(map[string]uint64),
		failures:  make(map[string]map[failureClass]uint64),
		rcHits:    make(map[string]uint64),
		rcMisses:  make(map[string]uint64),
		rcDedup:   make(map[string]uint64),
	}
}

func (m *Metrics) resultCacheHit(experiment string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rcHits[experiment]++
}

func (m *Metrics) resultCacheMiss(experiment string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rcMisses[experiment]++
}

func (m *Metrics) resultCacheDedup(experiment string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rcDedup[experiment]++
}

func (m *Metrics) jobSubmitted(experiment string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.submitted[experiment]++
}

func (m *Metrics) jobStarted(string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.started++
}

func (m *Metrics) jobFinished(experiment string, st State, dur time.Duration, stats cpu.Counters) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byState := m.finished[experiment]
	if byState == nil {
		byState = make(map[State]uint64)
		m.finished[experiment] = byState
	}
	byState[st]++
	h := m.latency[experiment]
	if h == nil {
		h = newHistogram()
		m.latency[experiment] = h
	}
	h.observe(dur.Seconds())
	m.sim.Add(stats)
}

func (m *Metrics) jobRetried(experiment string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retried[experiment]++
}

func (m *Metrics) jobFailed(experiment string, class failureClass) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byClass := m.failures[experiment]
	if byClass == nil {
		byClass = make(map[failureClass]uint64)
		m.failures[experiment] = byClass
	}
	byClass[class]++
}

func (m *Metrics) jobsRecovered(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recovered += uint64(n)
}

// SimCounters returns the aggregated simulator counters.
func (m *Metrics) SimCounters() cpu.Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sim
}

// Expose renders the full exposition. Current state counts and the queue
// gauge come from the live job table so a scrape is always consistent with
// GET /v1/jobs.
func (m *Metrics) Expose(states map[State]int, queueDepth int, breakers map[string]int, resultEntries int) string {
	m.mu.Lock()
	defer m.mu.Unlock()

	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	w("# HELP pathfinderd_jobs current number of jobs by lifecycle state\n")
	w("# TYPE pathfinderd_jobs gauge\n")
	for _, st := range States() {
		w("pathfinderd_jobs{state=%q} %d\n", string(st), states[st])
	}

	w("# HELP pathfinderd_queue_depth jobs waiting in the bounded queue\n")
	w("# TYPE pathfinderd_queue_depth gauge\n")
	w("pathfinderd_queue_depth %d\n", queueDepth)

	w("# HELP pathfinderd_workers size of the worker pool\n")
	w("# TYPE pathfinderd_workers gauge\n")
	w("pathfinderd_workers %d\n", m.workers)

	w("# HELP pathfinderd_jobs_submitted_total jobs accepted, by experiment\n")
	w("# TYPE pathfinderd_jobs_submitted_total counter\n")
	for _, exp := range sortedKeys(m.submitted) {
		w("pathfinderd_jobs_submitted_total{experiment=%q} %d\n", exp, m.submitted[exp])
	}

	w("# HELP pathfinderd_jobs_started_total jobs picked up by a worker\n")
	w("# TYPE pathfinderd_jobs_started_total counter\n")
	w("pathfinderd_jobs_started_total %d\n", m.started)

	w("# HELP pathfinderd_jobs_finished_total jobs reaching a terminal state, by experiment and state\n")
	w("# TYPE pathfinderd_jobs_finished_total counter\n")
	for _, exp := range sortedKeys(m.finished) {
		byState := m.finished[exp]
		for _, st := range States() {
			if n, ok := byState[st]; ok {
				w("pathfinderd_jobs_finished_total{experiment=%q,state=%q} %d\n", exp, string(st), n)
			}
		}
	}

	w("# HELP pathfinderd_job_retries_total failed attempts re-queued under the retry policy, by experiment\n")
	w("# TYPE pathfinderd_job_retries_total counter\n")
	for _, exp := range sortedKeys(m.retried) {
		w("pathfinderd_job_retries_total{experiment=%q} %d\n", exp, m.retried[exp])
	}

	w("# HELP pathfinderd_job_failures_total terminal failures by experiment and class\n")
	w("# TYPE pathfinderd_job_failures_total counter\n")
	for _, exp := range sortedKeys(m.failures) {
		byClass := m.failures[exp]
		for _, class := range []failureClass{failTimeout, failPanic, failError} {
			if n, ok := byClass[class]; ok {
				w("pathfinderd_job_failures_total{experiment=%q,class=%q} %d\n", exp, string(class), n)
			}
		}
	}

	w("# HELP pathfinderd_result_cache_hits_total jobs served from the result cache, by experiment\n")
	w("# TYPE pathfinderd_result_cache_hits_total counter\n")
	for _, exp := range sortedKeys(m.rcHits) {
		w("pathfinderd_result_cache_hits_total{experiment=%q} %d\n", exp, m.rcHits[exp])
	}

	w("# HELP pathfinderd_result_cache_misses_total jobs that missed the result cache, by experiment\n")
	w("# TYPE pathfinderd_result_cache_misses_total counter\n")
	for _, exp := range sortedKeys(m.rcMisses) {
		w("pathfinderd_result_cache_misses_total{experiment=%q} %d\n", exp, m.rcMisses[exp])
	}

	w("# HELP pathfinderd_result_cache_dedup_total jobs deduplicated onto an identical in-flight run, by experiment\n")
	w("# TYPE pathfinderd_result_cache_dedup_total counter\n")
	for _, exp := range sortedKeys(m.rcDedup) {
		w("pathfinderd_result_cache_dedup_total{experiment=%q} %d\n", exp, m.rcDedup[exp])
	}

	w("# HELP pathfinderd_result_cache_entries results currently held in the bounded LRU\n")
	w("# TYPE pathfinderd_result_cache_entries gauge\n")
	w("pathfinderd_result_cache_entries %d\n", resultEntries)

	w("# HELP pathfinderd_jobs_recovered_total jobs re-queued from the journal at startup\n")
	w("# TYPE pathfinderd_jobs_recovered_total counter\n")
	w("pathfinderd_jobs_recovered_total %d\n", m.recovered)

	w("# HELP pathfinderd_breaker_state per-experiment circuit breaker (0 closed, 1 half-open, 2 open)\n")
	w("# TYPE pathfinderd_breaker_state gauge\n")
	for _, exp := range sortedKeys(breakers) {
		w("pathfinderd_breaker_state{experiment=%q} %d\n", exp, breakers[exp])
	}

	w("# HELP pathfinderd_job_duration_seconds wall time per finished job\n")
	w("# TYPE pathfinderd_job_duration_seconds histogram\n")
	for _, exp := range sortedKeys(m.latency) {
		h := m.latency[exp]
		cum := uint64(0)
		for i, ub := range durationBuckets {
			cum += h.counts[i]
			w("pathfinderd_job_duration_seconds_bucket{experiment=%q,le=%q} %d\n", exp, trimFloat(ub), cum)
		}
		cum += h.counts[len(durationBuckets)]
		w("pathfinderd_job_duration_seconds_bucket{experiment=%q,le=\"+Inf\"} %d\n", exp, cum)
		w("pathfinderd_job_duration_seconds_sum{experiment=%q} %g\n", exp, h.sum)
		w("pathfinderd_job_duration_seconds_count{experiment=%q} %d\n", exp, h.n)
	}

	sim := []struct {
		name string
		v    uint64
	}{
		{"instructions", m.sim.Instructions},
		{"cycles", m.sim.Cycles},
		{"cond_branches", m.sim.CondBranches},
		{"taken_branches", m.sim.TakenBranches},
		{"mispredicts", m.sim.Mispredicts},
		{"transient_instrs", m.sim.TransientInstrs},
		{"runs", m.sim.Runs},
	}
	w("# HELP pathfinderd_sim_events_total simulated-machine counters aggregated over finished jobs\n")
	w("# TYPE pathfinderd_sim_events_total counter\n")
	for _, c := range sim {
		w("pathfinderd_sim_events_total{event=%q} %d\n", c.name, c.v)
	}

	// Sweep and snapshot-store telemetry lives in process-global
	// harness counters (the warm cache is shared across jobs), so it is read
	// live at scrape time rather than accumulated per job here.
	groups, cells, shared, pfHits, pfMisses := harness.PlannerStats()
	w("# HELP pathfinderd_sweep_planner_groups_total runs of consecutive same-prefix sweep cells executed\n")
	w("# TYPE pathfinderd_sweep_planner_groups_total counter\n")
	w("pathfinderd_sweep_planner_groups_total %d\n", groups)
	w("# HELP pathfinderd_sweep_planner_cells_total sweep cells executed\n")
	w("# TYPE pathfinderd_sweep_planner_cells_total counter\n")
	w("pathfinderd_sweep_planner_cells_total %d\n", cells)
	w("# HELP pathfinderd_sweep_planner_shared_cells_total cells that reused their run's shared warm prefix instead of retraining\n")
	w("# TYPE pathfinderd_sweep_planner_shared_cells_total counter\n")
	w("pathfinderd_sweep_planner_shared_cells_total %d\n", shared)
	w("# HELP pathfinderd_sweep_planner_prefetch_total pipelined prefix prefetches from the snapshot store, by result\n")
	w("# TYPE pathfinderd_sweep_planner_prefetch_total counter\n")
	w("pathfinderd_sweep_planner_prefetch_total{result=\"hit\"} %d\n", pfHits)
	w("pathfinderd_sweep_planner_prefetch_total{result=\"miss\"} %d\n", pfMisses)

	whits, wmisses := harness.SnapStoreStats()
	w("# HELP pathfinderd_warmcache_store_requests_total warm-cache lookups that fell through to the snapshot store, by result\n")
	w("# TYPE pathfinderd_warmcache_store_requests_total counter\n")
	w("pathfinderd_warmcache_store_requests_total{result=\"hit\"} %d\n", whits)
	w("pathfinderd_warmcache_store_requests_total{result=\"miss\"} %d\n", wmisses)

	if st := harness.InstalledSnapStore(); st != nil {
		hits, misses, puts, evictions, bytes, entries := st.Stats()
		w("# HELP pathfinderd_snapshot_store_ops_total on-disk snapshot store operations, by op\n")
		w("# TYPE pathfinderd_snapshot_store_ops_total counter\n")
		w("pathfinderd_snapshot_store_ops_total{op=\"hit\"} %d\n", hits)
		w("pathfinderd_snapshot_store_ops_total{op=\"miss\"} %d\n", misses)
		w("pathfinderd_snapshot_store_ops_total{op=\"put\"} %d\n", puts)
		w("pathfinderd_snapshot_store_ops_total{op=\"evict\"} %d\n", evictions)
		w("# HELP pathfinderd_snapshot_store_bytes bytes resident in the snapshot store\n")
		w("# TYPE pathfinderd_snapshot_store_bytes gauge\n")
		w("pathfinderd_snapshot_store_bytes %d\n", bytes)
		w("# HELP pathfinderd_snapshot_store_entries snapshots resident in the snapshot store\n")
		w("# TYPE pathfinderd_snapshot_store_entries gauge\n")
		w("pathfinderd_snapshot_store_entries %d\n", entries)
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// trimFloat renders a bucket bound the way Prometheus clients do (no
// trailing zeros, no scientific notation in this range).
func trimFloat(f float64) string {
	if f == math.Trunc(f) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}
