package cluster

import (
	"maps"
	"slices"

	"pathfinder/internal/metrics"
	"pathfinder/internal/service"
)

// coordMetrics is the coordinator's registry and the counters it updates.
// The gauges (workers, per-worker inflight and breakers, job states, the
// pending queue) are sampled from live coordinator state at scrape time, so
// a scrape always matches /cluster/status.
type coordMetrics struct {
	*metrics.Registry
	submitted, assigned, affinity, backpressure, reassigned, assignErrors *metrics.Counter
	assignFailures, peerReports, quarantines, probes, degradedRuns        *metrics.Counter
	heartbeats, results, dupResults, locates, cancelsRelayed, recovered   *metrics.Counter
}

func newCoordMetrics(c *Coordinator) *coordMetrics {
	reg := metrics.New()
	m := &coordMetrics{Registry: reg}
	// gauge registers a family sampled under the coordinator lock.
	gauge := func(name, help string, labels []string, sample func(metrics.Emit)) {
		reg.GaugeFunc(name, help, labels, func(emit metrics.Emit) {
			c.mu.Lock()
			defer c.mu.Unlock()
			sample(emit)
		})
	}
	// perWorker emits one series per known worker, by name.
	perWorker := func(value func(name string, w *workerState) int) func(metrics.Emit) {
		return func(emit metrics.Emit) {
			for _, name := range slices.Sorted(maps.Keys(c.workers)) {
				emit(uint64(value(name, c.workers[name])), name)
			}
		}
	}

	gauge("pathfinderd_cluster_workers", "live workers (heartbeat within the expiry window)", nil, func(emit metrics.Emit) {
		live, now := 0, c.now()
		for _, w := range c.workers {
			if now.Sub(w.lastSeen) <= c.cfg.WorkerExpiry {
				live++
			}
		}
		emit(uint64(live))
	})
	gauge("pathfinderd_cluster_jobs", "cluster jobs by lifecycle state", []string{"state"}, func(emit metrics.Emit) {
		counts := c.CountsLocked()
		for _, st := range service.States() {
			emit(uint64(counts[st]), string(st))
		}
	})
	gauge("pathfinderd_cluster_pending", "jobs waiting for assignment", nil, func(emit metrics.Emit) { emit(uint64(len(c.pending))) })
	gauge("pathfinderd_cluster_worker_inflight", "leases held per worker", []string{"worker"},
		perWorker(func(_ string, w *workerState) int { return len(w.inflight) }))
	gauge("pathfinderd_cluster_warm_keys", "snapshot advertisements across live workers", nil, func(emit metrics.Emit) {
		n := 0
		for _, w := range c.workers {
			n += len(w.warm)
		}
		emit(uint64(n))
	})
	m.submitted = reg.Counter("pathfinderd_cluster_jobs_submitted_total", "cluster jobs accepted")
	m.assigned = reg.Counter("pathfinderd_cluster_assignments_total", "accepted assignments, by worker", "worker")
	m.affinity = reg.FixedCounter("pathfinderd_cluster_affinity_total", "warm-affinity routing outcomes for jobs whose group has known holders", "outcome", "hit", "miss")
	m.backpressure = reg.Counter("pathfinderd_cluster_backpressure_requeues_total", "assignments bounced by worker 429s and requeued")
	m.reassigned = reg.Counter("pathfinderd_cluster_lease_reassignments_total", "jobs requeued after a lease expired")
	m.assignErrors = reg.Counter("pathfinderd_cluster_assign_errors_total", "assignments that failed in transport or with a non-429 error")
	gauge("pathfinderd_cluster_peer_breaker_state", "per-worker circuit breaker (0 closed, 1 half-open, 2 open)", []string{"worker"},
		perWorker(func(name string, _ *workerState) int { return c.peers.State(name) }))
	m.assignFailures = reg.Counter("pathfinderd_cluster_assign_failures_total", "assignment failures by RPC failure class", "class")
	m.peerReports = reg.Counter("pathfinderd_cluster_peer_reports_total", "worker-reported peer failures by class", "class")
	m.quarantines = reg.Counter("pathfinderd_cluster_quarantines_total", "peer breakers opened (worker quarantined, leases requeued)")
	m.probes = reg.Counter("pathfinderd_cluster_probes_total", "probe assignments admitted to quarantined workers")
	gauge("pathfinderd_cluster_degraded", "gauge: 1 while the coordinator is shedding jobs to in-process execution", nil, func(emit metrics.Emit) {
		if c.degraded {
			emit(1)
		} else {
			emit(0)
		}
	})
	m.degradedRuns = reg.Counter("pathfinderd_cluster_degraded_runs_total", "jobs completed in-process under degraded mode")
	m.heartbeats = reg.Counter("pathfinderd_cluster_heartbeats_total", "heartbeats received")
	m.results = reg.Counter("pathfinderd_cluster_results_total", "terminal results received, by state", "state").
		Order("state", string(service.StateDone), string(service.StateFailed), string(service.StateCancelled))
	m.dupResults = reg.Counter("pathfinderd_cluster_duplicate_results_total", "results for already-terminal jobs (reassignment races)")
	m.locates = reg.FixedCounter("pathfinderd_cluster_snapshot_locates_total", "warm-key location lookups, by outcome", "outcome", "hit", "miss")
	m.cancelsRelayed = reg.Counter("pathfinderd_cluster_cancels_relayed_total", "cancellations relayed to workers via heartbeat replies")
	m.recovered = reg.Counter("pathfinderd_cluster_jobs_recovered_total", "jobs re-queued from the coordinator journal at startup")
	return m
}
