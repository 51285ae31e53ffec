package service

import (
	"maps"
	"slices"
	"time"

	"pathfinder/internal/cpu"
	"pathfinder/internal/harness"
	"pathfinder/internal/metrics"
)

// durationBuckets are the latency histogram upper bounds in seconds.
// Experiments span ~1ms (table1) to minutes (full fig7), so the buckets
// cover five decades.
var durationBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120}

// serviceMetrics is the service's registry and the families it updates:
// job counts by state and experiment, per-experiment latency histograms,
// and the simulated-machine counters summed over every finished job. The
// gauges are sampled from the live job table at scrape time, so a scrape is
// always consistent with GET /v1/jobs.
type serviceMetrics struct {
	*metrics.Registry
	submitted, started, finished, retried, failures *metrics.Counter
	cacheHits, cacheMisses, cacheDedup, recovered   *metrics.Counter
	sim                                             *metrics.Counter
	latency                                         *metrics.Histogram
}

// simEvents names the simulated-machine counters in exposition order.
var simEvents = []string{"instructions", "cycles", "cond_branches", "taken_branches", "mispredicts", "transient_instrs", "runs"}

func newServiceMetrics(s *Service) *serviceMetrics {
	reg := metrics.New()
	m := &serviceMetrics{Registry: reg}
	terminal := []string{string(StateDone), string(StateFailed), string(StateCancelled)}

	reg.GaugeFunc("pathfinderd_jobs", "current number of jobs by lifecycle state", []string{"state"}, func(emit metrics.Emit) {
		counts := s.StateCounts()
		for _, st := range States() {
			emit(uint64(counts[st]), string(st))
		}
	})
	reg.GaugeFunc("pathfinderd_queue_depth", "jobs waiting in the bounded queue", nil, func(emit metrics.Emit) { emit(uint64(s.QueueDepth())) })
	reg.GaugeFunc("pathfinderd_workers", "size of the worker pool", nil, func(emit metrics.Emit) { emit(uint64(s.Workers())) })
	m.submitted = reg.Counter("pathfinderd_jobs_submitted_total", "jobs accepted, by experiment", "experiment")
	m.started = reg.Counter("pathfinderd_jobs_started_total", "jobs picked up by a worker")
	m.finished = reg.Counter("pathfinderd_jobs_finished_total", "jobs reaching a terminal state, by experiment and state", "experiment", "state").
		Order("state", terminal...)
	m.retried = reg.Counter("pathfinderd_job_retries_total", "failed attempts re-queued under the retry policy, by experiment", "experiment")
	m.failures = reg.Counter("pathfinderd_job_failures_total", "terminal failures by experiment and class", "experiment", "class").
		Order("class", string(failTimeout), string(failPanic), string(failError))
	m.cacheHits = reg.Counter("pathfinderd_result_cache_hits_total", "jobs served from the result cache, by experiment", "experiment")
	m.cacheMisses = reg.Counter("pathfinderd_result_cache_misses_total", "jobs that missed the result cache, by experiment", "experiment")
	m.cacheDedup = reg.Counter("pathfinderd_result_cache_dedup_total", "jobs deduplicated onto an identical in-flight run, by experiment", "experiment")
	reg.GaugeFunc("pathfinderd_result_cache_entries", "results currently held in the bounded LRU", nil, func(emit metrics.Emit) { emit(uint64(s.results.len())) })
	m.recovered = reg.Counter("pathfinderd_jobs_recovered_total", "jobs re-queued from the journal at startup")
	reg.GaugeFunc("pathfinderd_breaker_state", "per-experiment circuit breaker (0 closed, 1 half-open, 2 open)", []string{"experiment"}, func(emit metrics.Emit) {
		states := s.breaker.Snapshot()
		for _, exp := range slices.Sorted(maps.Keys(states)) {
			emit(uint64(states[exp]), exp)
		}
	})
	m.latency = reg.Histogram("pathfinderd_job_duration_seconds", "wall time per finished job", durationBuckets, "experiment")
	m.sim = reg.FixedCounter("pathfinderd_sim_events_total", "simulated-machine counters aggregated over finished jobs", "event", simEvents...)

	// Sweep and snapshot-store telemetry lives in process-global harness
	// counters (the warm cache is shared across jobs), so it is read live at
	// scrape time rather than accumulated per job here.
	reg.CounterFunc("pathfinderd_sweep_planner_groups_total", "runs of consecutive same-prefix sweep cells executed", nil, func(emit metrics.Emit) {
		groups, _, _, _, _ := harness.PlannerStats()
		emit(groups)
	})
	reg.CounterFunc("pathfinderd_sweep_planner_cells_total", "sweep cells executed", nil, func(emit metrics.Emit) {
		_, cells, _, _, _ := harness.PlannerStats()
		emit(cells)
	})
	reg.CounterFunc("pathfinderd_sweep_planner_shared_cells_total", "cells that reused their run's shared warm prefix instead of retraining", nil, func(emit metrics.Emit) {
		_, _, shared, _, _ := harness.PlannerStats()
		emit(shared)
	})
	reg.CounterFunc("pathfinderd_sweep_planner_prefetch_total", "pipelined prefix prefetches from the snapshot store, by result", []string{"result"}, func(emit metrics.Emit) {
		_, _, _, hits, misses := harness.PlannerStats()
		emit(hits, "hit")
		emit(misses, "miss")
	})
	reg.CounterFunc("pathfinderd_warmcache_store_requests_total", "warm-cache lookups that fell through to the snapshot store, by result", []string{"result"}, func(emit metrics.Emit) {
		hits, misses := harness.SnapStoreStats()
		emit(hits, "hit")
		emit(misses, "miss")
	})
	// The snapshot-store families render only while a store is installed.
	reg.CounterFunc("pathfinderd_snapshot_store_ops_total", "on-disk snapshot store operations, by op", []string{"op"}, func(emit metrics.Emit) {
		if st := harness.InstalledSnapStore(); st != nil {
			hits, misses, puts, evictions, _, _ := st.Stats()
			emit(hits, "hit")
			emit(misses, "miss")
			emit(puts, "put")
			emit(evictions, "evict")
		}
	})
	reg.GaugeFunc("pathfinderd_snapshot_store_bytes", "bytes resident in the snapshot store", nil, func(emit metrics.Emit) {
		if st := harness.InstalledSnapStore(); st != nil {
			_, _, _, _, bytes, _ := st.Stats()
			emit(uint64(bytes))
		}
	})
	reg.GaugeFunc("pathfinderd_snapshot_store_entries", "snapshots resident in the snapshot store", nil, func(emit metrics.Emit) {
		if st := harness.InstalledSnapStore(); st != nil {
			_, _, _, _, _, entries := st.Stats()
			emit(uint64(entries))
		}
	})
	return m
}

// jobFinished accounts one job reaching a terminal state.
func (m *serviceMetrics) jobFinished(experiment string, st State, dur time.Duration, stats cpu.Counters) {
	m.finished.Add(1, experiment, string(st))
	m.latency.Observe(dur.Seconds(), experiment)
	for i, v := range []uint64{stats.Instructions, stats.Cycles, stats.CondBranches, stats.TakenBranches,
		stats.Mispredicts, stats.TransientInstrs, stats.Runs} {
		m.sim.Add(v, simEvents[i])
	}
}
