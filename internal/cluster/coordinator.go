package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"pathfinder/internal/cpu"
	"pathfinder/internal/service"
)

// CoordinatorConfig tunes a Coordinator. The zero value is usable: default
// lease and dispatch timing, the standard registry, a discarding logger,
// and no persistence.
type CoordinatorConfig struct {
	Registry *service.Registry // experiment registry; nil means NewRegistry()
	Logger   *slog.Logger      // nil discards
	Clock    func() time.Time  // test hook; nil means time.Now

	// LeaseTTL is how long an assignment stays owned without a heartbeat
	// listing the job. <=0 means 10s.
	LeaseTTL time.Duration
	// WorkerExpiry is how long after its last heartbeat a worker is still
	// assignable. <=0 means 3×LeaseTTL.
	WorkerExpiry time.Duration
	// DispatchEvery is the scheduling tick. <=0 means 50ms. Submissions,
	// results and heartbeats additionally kick the dispatcher immediately.
	DispatchEvery time.Duration
	// MaxAssigns bounds how many accepted assignments one job may consume
	// (initial assignment plus lease-expiry reassignments) before it is
	// finalized failed. <=0 means 3.
	MaxAssigns int
	// MaxInflightPerWorker bounds the leases one worker may hold — the
	// coordinator-side queue bound that keeps a sweep from piling onto one
	// node. <=0 means 4.
	MaxInflightPerWorker int
	// MaxPending bounds the unassigned queue. <=0 means 4096.
	MaxPending int
	// DefaultTimeout is the per-job timeout when a submission names none.
	// <=0 means 2 minutes.
	DefaultTimeout time.Duration

	// DataDir enables the coordinator journal: every job transition is
	// appended to <DataDir>/coordinator.jsonl and replayed on startup.
	DataDir string

	// HTTPClient performs assignments; nil uses a plain client (per-RPC
	// deadlines come from Timeouts, not a flat client timeout).
	HTTPClient *http.Client

	// Timeouts are the per-RPC-class context deadlines for coordinator→
	// worker calls. Zero fields take the documented defaults.
	Timeouts RPCTimeouts

	// PeerBreakerThreshold is the consecutive assignment-path failures
	// (transport errors, timeouts, 5xx, reported corrupt snapshots — not
	// 429 backpressure) after which a worker's breaker opens and the worker
	// is quarantined: skipped by the scheduler, its in-flight leases
	// requeued immediately. <=0 means 3.
	PeerBreakerThreshold int
	// PeerBreakerCooldown is how long a quarantined worker waits before the
	// scheduler admits one probe assignment. <=0 means 5s.
	PeerBreakerCooldown time.Duration

	// DegradedAfter is how long the pending queue may sit with no
	// assignable worker before the coordinator sheds to degraded mode and
	// runs pending jobs in-process (deterministic drivers make the results
	// byte-identical to worker execution). <=0 disables degraded mode.
	DegradedAfter time.Duration
}

// workerState is one worker's live record, built entirely from heartbeats.
type workerState struct {
	name      string
	addr      string
	lastSeen  time.Time
	inflight  map[string]struct{} // cluster job IDs under lease here
	queue     int
	capacity  int
	saturated bool              // last assignment got 429; cleared by the next heartbeat
	warm      map[string]string // warm key → snapshot content hash
}

// lease is what the coordinator alone keeps per job.
type lease struct {
	expiry  time.Time // when the current assignment lapses; inert once the job is terminal
	assigns int       // accepted assignments consumed
}

// clusterJob is the coordinator's record in its job table.
type clusterJob = service.Job[lease]

// Coordinator owns a job table, the pending queue, the worker directory,
// and the dispatch loop that pushes assignments to workers. The embedded
// Table supplies Submit, SubmitSweep, NewBatch, Get and List.
type Coordinator struct {
	*service.Table[lease]

	cfg     CoordinatorConfig
	log     *slog.Logger
	now     func() time.Time
	client  *http.Client
	metrics *coordMetrics
	journal *service.Journal // nil without DataDir
	peers   *service.KeyedBreaker

	mu            sync.Mutex
	pending       []string // unassigned job IDs, FIFO
	workers       map[string]*workerState
	affinity      map[string]map[string]time.Time // warm group → worker → last success
	closed        bool
	starvedSince  time.Time // pending jobs but no assignable worker since
	degraded      bool      // currently shedding to in-process execution
	localInflight int       // jobs running in-process under degraded mode

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator builds a coordinator, replays its journal when DataDir is
// set, and starts the dispatch loop.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Registry == nil {
		cfg.Registry = service.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.WorkerExpiry <= 0 {
		cfg.WorkerExpiry = 3 * cfg.LeaseTTL
	}
	if cfg.DispatchEvery <= 0 {
		cfg.DispatchEvery = 50 * time.Millisecond
	}
	if cfg.MaxAssigns <= 0 {
		cfg.MaxAssigns = 3
	}
	if cfg.MaxInflightPerWorker <= 0 {
		cfg.MaxInflightPerWorker = 4
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 4096
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 2 * time.Minute
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = defaultHTTPClient()
	}
	cfg.Timeouts = cfg.Timeouts.withDefaults()
	if cfg.PeerBreakerThreshold <= 0 {
		cfg.PeerBreakerThreshold = 3
	}
	if cfg.PeerBreakerCooldown <= 0 {
		cfg.PeerBreakerCooldown = 5 * time.Second
	}

	var (
		journal  *service.Journal
		replayed []*service.ReplayedJob
		maxSeq   uint64
	)
	if cfg.DataDir != "" {
		var err error
		if journal, replayed, maxSeq, err = service.OpenJournal(filepath.Join(cfg.DataDir, "coordinator.jsonl"), cfg.Logger); err != nil {
			return nil, err
		}
	}
	c := &Coordinator{
		cfg:      cfg,
		log:      cfg.Logger,
		now:      cfg.Clock,
		client:   cfg.HTTPClient,
		journal:  journal,
		peers:    service.NewKeyedBreaker("peer", cfg.PeerBreakerThreshold, cfg.PeerBreakerCooldown, cfg.Clock),
		workers:  make(map[string]*workerState),
		affinity: make(map[string]map[string]time.Time),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	c.Table = service.NewTable(service.TableConfig[lease]{
		Lock: &c.mu, JobPrefix: "cjob-", BatchPrefix: "cbatch-",
		Registry: cfg.Registry, Journal: journal, Logger: cfg.Logger, Clock: cfg.Clock,
		DefaultTimeout: cfg.DefaultTimeout, QueueBound: cfg.MaxPending,
		Admit: c.admit,
		Submitted: func(string) {
			c.metrics.submitted.Add(1)
			c.kickDispatch()
		},
	})
	c.metrics = newCoordMetrics(c)

	// Replay re-queues every unfinished job unassigned, with a fresh
	// assignment budget: a crash invalidates every lease. Workers keep
	// resending unacked results across the restart, so jobs that finished
	// during the outage converge without re-execution.
	c.Restore(replayed, maxSeq, func(j *clusterJob, _ *service.ReplayedJob) {
		c.pending = append(c.pending, j.ID)
	})
	c.metrics.recovered.Add(uint64(len(c.pending)))
	if cfg.DataDir != "" {
		c.log.Info("coordinator journal replayed", "jobs", len(replayed), "recovered", len(c.pending))
	}

	c.wg.Add(1)
	go c.loop()
	return c, nil
}

// Shutdown stops admission and the dispatch loop. Workers keep running
// their in-flight jobs; their results land in the journal of the next
// coordinator incarnation via the worker resend loop.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("cluster: coordinator Shutdown called twice")
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)

	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		<-done
	}
	if cerr := c.journal.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// kickDispatch nudges the loop without blocking.
func (c *Coordinator) kickDispatch() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// loop is the scheduling goroutine: expire leases, then dispatch.
func (c *Coordinator) loop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.DispatchEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		case <-c.kick:
		}
		c.expireLeases()
		c.dispatch()
	}
}

// admit queues a new job for assignment, or refuses it after Shutdown or
// when the pending list is at its bound. Caller holds c.mu.
func (c *Coordinator) admit(j *clusterJob) error {
	if c.closed {
		return service.ErrDraining
	}
	if len(c.pending) >= c.cfg.MaxPending {
		return service.ErrQueueFull
	}
	c.pending = append(c.pending, j.ID)
	return nil
}

// Cancel aborts a job: an unassigned pending job finalizes immediately; an
// assigned job is cancelled on its worker through the next heartbeat reply
// and finalizes when the worker reports the cancelled result.
func (c *Coordinator) Cancel(id string) (service.JobView, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.JobLocked(id)
	if j == nil {
		return service.JobView{}, service.ErrNotFound
	}
	if j.State.Terminal() {
		return j.View(), service.ErrFinished
	}
	j.CancelRequested = true
	if j.Worker == "" {
		c.FinishLocked(j, service.StateCancelled, "", nil, cpu.Counters{})
	}
	return j.View(), nil
}

// affinityGroup is the warm-routing key: jobs in the same group share
// trainable warm state (the harness warm cache keys per-trial snapshots by
// kind/arch/program/noise; within one experiment the program is fixed, so
// experiment + canonical arch + noise identifies the reusable state).
func affinityGroup(experiment string, p service.Params) string {
	arch := p.Arch
	if cfg, err := service.ArchConfig(p.Arch); err == nil {
		arch = cfg.Name
	}
	return fmt.Sprintf("%s|%s|%g", experiment, arch, p.Noise)
}

// noteAffinityLocked records a successful completion for warm routing.
func (c *Coordinator) noteAffinityLocked(j *clusterJob, worker string) {
	g := affinityGroup(j.Experiment, j.Params)
	byWorker := c.affinity[g]
	if byWorker == nil {
		byWorker = make(map[string]time.Time)
		c.affinity[g] = byWorker
	}
	byWorker[worker] = c.now()
}

// expireLeases requeues jobs whose lease lapsed and prunes workers that
// stopped heartbeating (requeuing their leases promptly rather than waiting
// for each lease to lapse on its own).
func (c *Coordinator) expireLeases() {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()

	for name, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.cfg.WorkerExpiry {
			continue
		}
		for id := range w.inflight {
			if j := c.JobLocked(id); j != nil && !j.State.Terminal() && j.Worker == name {
				c.requeueLocked(j, fmt.Sprintf("worker %s expired", name))
			}
		}
		delete(c.workers, name)
		c.log.Warn("worker expired", "worker", name, "last_seen", w.lastSeen)
	}
	for j := range c.JobsLocked() {
		// Degraded-mode jobs run in this process and hold no lease.
		if j.Worker == degradedWorker {
			continue
		}
		if j.Worker != "" && !j.State.Terminal() && now.After(j.Own.expiry) {
			c.requeueLocked(j, "lease expired")
		}
	}
}

// requeueLocked returns an assigned job to the pending queue — or finalizes
// it failed once the assignment budget is spent. Caller holds c.mu.
func (c *Coordinator) requeueLocked(j *clusterJob, reason string) {
	if w := c.workers[j.Worker]; w != nil {
		delete(w.inflight, j.ID)
	}
	worker := j.Worker
	j.Worker = ""
	j.Own.expiry = time.Time{}
	if j.Own.assigns >= c.cfg.MaxAssigns {
		c.FinishLocked(j, service.StateFailed,
			fmt.Sprintf("%s after %d assignment(s), budget %d exhausted", reason, j.Own.assigns, c.cfg.MaxAssigns),
			nil, cpu.Counters{})
		return
	}
	j.State = service.StatePending
	j.Started = time.Time{}
	// Requeue at the front: a reassigned job is older than anything pending.
	c.pending = append([]string{j.ID}, c.pending...)
	c.journal.Append(service.JournalRecord{Op: service.OpRequeue, Job: j.ID, Time: c.now(), Worker: worker, Reason: reason})
	c.metrics.reassigned.Add(1)
	c.log.Warn("cluster job requeued", "job", j.ID, "worker", worker, "reason", reason, "assigns", j.Own.assigns)
}

// assignment is one dispatch decision, executed outside the lock.
type assignment struct {
	job    *clusterJob
	worker string
	addr   string
	req    RunRequest
}

// degradedWorker is the Worker marker for jobs the coordinator runs
// in-process under degraded mode.
const degradedWorker = "coordinator"

// dispatch drains the pending queue onto assignable workers. When no worker
// has been assignable for DegradedAfter while jobs wait, the coordinator
// sheds to degraded mode: pending jobs run in-process through the same
// registry the workers use, so their results (deterministic functions of
// the resolved params) are byte-identical to worker execution.
func (c *Coordinator) dispatch() {
	now := c.now()
	c.mu.Lock()
	var work []assignment
	var local []*clusterJob
	var remaining []string
	for _, id := range c.pending {
		j := c.JobLocked(id)
		if j == nil || j.State != service.StatePending || j.Worker != "" {
			continue // cancelled or already handled
		}
		w := c.pickWorkerLocked(j, now)
		if w == nil {
			remaining = append(remaining, id)
			continue
		}
		j.Worker = w.name
		j.Own.expiry = now.Add(c.cfg.LeaseTTL)
		w.inflight[j.ID] = struct{}{}
		work = append(work, assignment{
			job:    j,
			worker: w.name,
			addr:   w.addr,
			req: RunRequest{
				ID:         j.ID,
				Experiment: j.Experiment,
				Params:     j.Params,
				TimeoutMS:  j.Timeout.Milliseconds(),
			},
		})
	}
	c.pending = remaining

	switch {
	case len(work) > 0:
		// At least one worker is taking jobs: leave degraded mode.
		c.starvedSince = time.Time{}
		c.degraded = false
	case len(remaining) == 0:
		c.starvedSince = time.Time{}
	default:
		if c.starvedSince.IsZero() {
			c.starvedSince = now
		}
		if c.cfg.DegradedAfter > 0 && now.Sub(c.starvedSince) >= c.cfg.DegradedAfter {
			c.degraded = true
			var rest []string
			for _, id := range c.pending {
				j := c.JobLocked(id)
				if j == nil || j.State != service.StatePending || j.Worker != "" {
					continue
				}
				if c.localInflight+len(local) >= c.cfg.MaxInflightPerWorker {
					rest = append(rest, id)
					continue
				}
				j.Worker = degradedWorker
				j.State = service.StateRunning
				j.Started = now
				j.Own.assigns++
				c.journal.Append(service.JournalRecord{Op: service.OpAssign, Job: j.ID, Time: now, Worker: degradedWorker})
				local = append(local, j)
			}
			c.pending = rest
			c.localInflight += len(local)
		}
	}
	c.mu.Unlock()

	for _, j := range local {
		c.log.Warn("degraded mode: running job in-process", "job", j.ID)
		go c.runLocal(j)
	}
	if len(work) == 0 {
		return
	}
	// One batched POST per destination worker, sent concurrently: a slow or
	// saturated worker no longer serializes the rest of the dispatch pass
	// behind its RPC, which is what made adding workers *slow down* sweeps.
	byWorker := make(map[string][]assignment)
	for _, a := range work {
		byWorker[a.worker] = append(byWorker[a.worker], a)
	}
	var wg sync.WaitGroup
	for _, batch := range byWorker {
		wg.Add(1)
		go func(batch []assignment) {
			defer wg.Done()
			c.sendAssignments(batch)
		}(batch)
	}
	wg.Wait()
}

// runLocal executes one job in-process — the degraded-mode path when every
// worker is partitioned or quarantined. The drivers are deterministic, so
// the result bytes match what any worker would have produced.
func (c *Coordinator) runLocal(j *clusterJob) {
	defer func() {
		c.mu.Lock()
		c.localInflight--
		c.mu.Unlock()
		c.kickDispatch()
	}()

	var (
		raw   json.RawMessage
		stats cpu.Counters
		err   error
	)
	if exp, ok := c.Registry().Get(j.Experiment); ok {
		ctx, cancel := context.WithTimeout(context.Background(), j.Timeout)
		raw, stats, err = service.Execute(ctx, exp.Run, j.Params)
		cancel()
	} else {
		err = fmt.Errorf("experiment %q not runnable on the coordinator", j.Experiment)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if j.State.Terminal() {
		return
	}
	st := service.StateDone
	errMsg := ""
	if j.CancelRequested {
		st, raw = service.StateCancelled, nil
	} else if err != nil {
		st, errMsg = service.StateFailed, err.Error()
	}
	j.Attempts = 1
	c.FinishLocked(j, st, errMsg, raw, stats)
	if st == service.StateDone {
		c.metrics.degradedRuns.Add(1)
	}
	c.metrics.results.Add(1, string(st))
	c.log.Info("degraded-mode job finished", "job", j.ID, "state", string(st))
}

// pickWorkerLocked selects the destination: least-loaded among the job's
// warm-group holders, else least-loaded overall, considering only workers
// whose peer breaker is closed. When no healthy worker is eligible, a
// quarantined worker whose cooldown has lapsed may be admitted as a single
// probe. Iteration is name-sorted so ties break deterministically. Caller
// holds c.mu.
func (c *Coordinator) pickWorkerLocked(j *clusterJob, now time.Time) *workerState {
	holders := c.affinity[affinityGroup(j.Experiment, j.Params)]

	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)

	eligible := func(w *workerState) bool {
		return now.Sub(w.lastSeen) <= c.cfg.WorkerExpiry && !w.saturated &&
			len(w.inflight) < c.cfg.MaxInflightPerWorker
	}

	var best, bestHolder *workerState
	for _, name := range names {
		w := c.workers[name]
		if !eligible(w) || c.peers.State(name) != service.BreakerClosed {
			continue
		}
		if best == nil || len(w.inflight) < len(best.inflight) {
			best = w
		}
		if _, isHolder := holders[name]; isHolder {
			if bestHolder == nil || len(w.inflight) < len(bestHolder.inflight) {
				bestHolder = w
			}
		}
	}
	if len(holders) > 0 && best != nil {
		if bestHolder != nil {
			c.metrics.affinity.Add(1, "hit")
			return bestHolder
		}
		c.metrics.affinity.Add(1, "miss")
	}
	if best != nil {
		return best
	}
	// No healthy worker: see if a quarantined one has cooled down enough to
	// probe. Allow admits at most one probe per open breaker — a second job
	// in the same dispatch pass is rejected until the probe resolves.
	for _, name := range names {
		w := c.workers[name]
		if !eligible(w) || c.peers.State(name) == service.BreakerClosed {
			continue
		}
		if c.peers.Allow(name) == nil {
			c.metrics.probes.Add(1)
			c.log.Info("probing quarantined worker", "worker", name, "job", j.ID)
			return w
		}
	}
	return nil
}

// notePeerFailureLocked feeds one peer failure into the breaker and, when
// the breaker opens on this failure, quarantines the worker: its in-flight
// leases are requeued immediately rather than waiting for each lease to
// expire. Caller holds c.mu.
func (c *Coordinator) notePeerFailureLocked(name, class, reason string) {
	before := c.peers.State(name)
	c.peers.Record(name, false)
	if before == service.BreakerOpen || c.peers.State(name) != service.BreakerOpen {
		return
	}
	c.metrics.quarantines.Add(1)
	if w := c.workers[name]; w != nil {
		for id := range w.inflight {
			if j := c.JobLocked(id); j != nil && !j.State.Terminal() && j.Worker == name {
				c.requeueLocked(j, fmt.Sprintf("worker %s quarantined (%s)", name, class))
			}
		}
	}
	c.log.Warn("worker quarantined", "worker", name, "class", class, "reason", reason)
}

// sendAssignments POSTs one dispatch tick's assignments for a single
// worker (every element targets the same address) as one batch under the
// control-RPC deadline, then settles each job: accepted assignments start
// their leases and count a breaker success; a Saturated rejection marks
// the worker saturated until its next heartbeat and requeues the job
// without touching the breaker — backpressure is load, not sickness; a
// transport error, timeout or 5xx fails the whole batch, requeues every
// job and feeds the worker's breaker exactly once, so one dead RPC carries
// the same breaker weight no matter how many jobs rode on it.
func (c *Coordinator) sendAssignments(batch []assignment) {
	worker, addr := batch[0].worker, batch[0].addr
	jobs := make([]RunRequest, len(batch))
	for i, a := range batch {
		jobs[i] = a.req
	}
	body, _ := json.Marshal(RunBatch{Jobs: jobs})
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeouts.Control)
	defer cancel()
	hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/cluster/runs", bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	status := 0
	var reply RunBatchReply
	if err == nil {
		status = resp.StatusCode
		if status < 300 {
			err = json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&reply)
		}
		resp.Body.Close()
	}

	c.mu.Lock()
	defer c.mu.Unlock()

	requeue := func(a assignment, saturated bool) {
		j := a.job
		if w := c.workers[worker]; w != nil {
			delete(w.inflight, j.ID)
			if saturated {
				w.saturated = true
			}
		}
		if !j.State.Terminal() && j.Worker == worker {
			j.Worker = ""
			j.Own.expiry = time.Time{}
			c.pending = append([]string{j.ID}, c.pending...)
		}
	}

	if err != nil || status >= 300 {
		saturated := status == http.StatusTooManyRequests
		for _, a := range batch {
			requeue(a, saturated)
		}
		if saturated {
			// The whole batch bounced as load (a proxy or the legacy single
			// surface): requeue without breaker feedback.
			c.metrics.backpressure.Add(uint64(len(batch)))
			c.log.Info("worker saturated, batch requeued", "worker", worker, "jobs", len(batch))
			return
		}
		class := classifyRPCFailure(err, status)
		c.metrics.assignErrors.Add(uint64(len(batch)))
		c.metrics.assignFailures.Add(1, class)
		c.notePeerFailureLocked(worker, class, fmt.Sprintf("assignment batch of %d failed: status=%d err=%v", len(batch), status, err))
		c.log.Warn("assignment batch failed, jobs requeued", "worker", worker, "jobs", len(batch), "status", status, "class", class, "err", err)
		return
	}

	byID := make(map[string]RunResponse, len(reply.Results))
	for _, rr := range reply.Results {
		byID[rr.ID] = rr
	}
	for _, a := range batch {
		j := a.job
		rr := byID[j.ID]
		switch {
		case rr.Accepted:
			c.peers.Record(worker, true)
			if j.State.Terminal() || j.Worker != worker {
				continue // raced with a result or a concurrent requeue
			}
			j.Own.assigns++
			c.journal.Append(service.JournalRecord{Op: service.OpAssign, Job: j.ID, Time: c.now(), Worker: worker})
			c.metrics.assigned.Add(1, worker)
			c.log.Info("cluster job assigned", "job", j.ID, "worker", worker, "assign", j.Own.assigns)
		case rr.Saturated:
			requeue(a, true)
			c.metrics.backpressure.Add(1)
			c.log.Info("worker saturated, job requeued", "job", j.ID, "worker", worker)
		default:
			// Reachable but not accepting this job (rejected or missing from
			// the reply) — treat like backpressure, not sickness.
			requeue(a, false)
			c.metrics.assignErrors.Add(1)
			c.log.Warn("assignment rejected, job requeued", "job", j.ID, "worker", worker, "reason", rr.Error)
		}
	}
}

// handlePeerReport ingests one worker's complaint about a peer (today:
// corrupt snapshot bodies detected at the transport edge) and feeds it into
// the peer's breaker, exactly like a coordinator-observed failure.
func (c *Coordinator) handlePeerReport(pr PeerReport) {
	c.mu.Lock()
	c.metrics.peerReports.Add(1, pr.Class)
	c.notePeerFailureLocked(pr.Peer, pr.Class, fmt.Sprintf("reported by %s", pr.From))
	c.mu.Unlock()
	c.kickDispatch()
}

// handleHeartbeat ingests one worker heartbeat: refreshes the directory
// entry, renews the leases of every job the worker still reports, updates
// running-state progress, and returns the IDs the worker should cancel.
func (c *Coordinator) handleHeartbeat(hb Heartbeat) HeartbeatReply {
	now := c.now()
	c.mu.Lock()
	w := c.workers[hb.Worker]
	if w == nil {
		w = &workerState{name: hb.Worker, inflight: make(map[string]struct{})}
		c.workers[hb.Worker] = w
		c.log.Info("worker joined", "worker", hb.Worker, "addr", hb.Addr)
	}
	w.addr = hb.Addr
	w.lastSeen = now
	w.queue = hb.Queue
	w.capacity = hb.Capacity
	w.saturated = false
	w.warm = make(map[string]string, len(hb.WarmKeys))
	for _, ad := range hb.WarmKeys {
		w.warm[ad.Key] = ad.Hash
	}

	reported := make(map[string]service.State, len(hb.Jobs))
	for _, js := range hb.Jobs {
		reported[js.ID] = js.State
	}
	var cancels []string
	for id := range w.inflight {
		j := c.JobLocked(id)
		if j == nil || j.State.Terminal() || j.Worker != hb.Worker {
			delete(w.inflight, id)
			continue
		}
		st, ok := reported[id]
		if !ok {
			// The worker does not (or does not yet) know this job — either
			// the assignment is still in flight or the worker restarted.
			// Leave the lease to expire on its own rather than guessing.
			continue
		}
		j.Own.expiry = now.Add(c.cfg.LeaseTTL)
		if st == service.StateRunning && j.State == service.StatePending {
			j.State = service.StateRunning
			j.Started = now
		}
		if j.CancelRequested {
			cancels = append(cancels, id)
		}
	}
	// Jobs the worker reports but no longer owns (lease lost, job finished
	// elsewhere): cancel them so the worker stops spending cycles.
	for id := range reported {
		j := c.JobLocked(id)
		if j == nil || j.State.Terminal() || j.Worker != hb.Worker {
			cancels = append(cancels, id)
		}
	}
	c.mu.Unlock()

	c.metrics.heartbeats.Add(1)
	c.metrics.cancelsRelayed.Add(uint64(len(cancels)))
	c.kickDispatch()
	return HeartbeatReply{Cancel: cancels}
}

// handleResults ingests terminal results. Every ID is acked — even
// duplicates and strays — so workers always drop their mapping; only the
// first terminal result for a job mutates it.
func (c *Coordinator) handleResults(p ResultsPush) ResultsReply {
	reply := ResultsReply{Acked: make([]string, 0, len(p.Results))}
	c.mu.Lock()
	for _, r := range p.Results {
		reply.Acked = append(reply.Acked, r.ID)
		j := c.JobLocked(r.ID)
		if j == nil {
			continue
		}
		if j.State.Terminal() {
			c.metrics.dupResults.Add(1)
			continue
		}
		if !r.State.Terminal() {
			continue
		}
		// A worker that lost the lease may still report: a done result is
		// always valid (the drivers are deterministic, so it is identical
		// to what the new owner will produce), but a stale owner's failure
		// or relayed cancellation must not clobber the live assignment.
		if j.Worker != p.Worker && r.State != service.StateDone {
			continue
		}
		if w := c.workers[p.Worker]; w != nil {
			delete(w.inflight, r.ID)
		}
		st := r.State
		if j.CancelRequested {
			st = service.StateCancelled
		}
		var stats cpu.Counters
		if r.Stats != nil {
			stats = *r.Stats
		}
		j.Worker = p.Worker // credit the worker that actually finished
		j.Attempts = r.Attempts
		c.FinishLocked(j, st, r.Error, r.Result, stats)
		if st == service.StateDone {
			c.noteAffinityLocked(j, p.Worker)
		}
		c.metrics.results.Add(1, string(st))
		c.log.Info("cluster job finished", "job", j.ID, "worker", p.Worker, "state", string(st))
	}
	c.mu.Unlock()
	c.kickDispatch()
	return reply
}

// locateSnapshots answers a warm-key lookup with up to two live,
// non-quarantined holders ranked freshest-heartbeat-first (names break
// ties), excluding the requester itself. Two holders feed the worker's
// hedged fetch; peers with an open breaker are never offered.
func (c *Coordinator) locateSnapshots(key, from string) []SnapshotLocation {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	type candidate struct {
		loc  SnapshotLocation
		seen time.Time
	}
	var cands []candidate
	for name, w := range c.workers {
		if name == from || now.Sub(w.lastSeen) > c.cfg.WorkerExpiry {
			continue
		}
		if c.peers.State(name) == service.BreakerOpen {
			continue
		}
		hash, ok := w.warm[key]
		if !ok {
			continue
		}
		cands = append(cands, candidate{
			loc:  SnapshotLocation{Worker: name, Addr: w.addr, Hash: hash},
			seen: w.lastSeen,
		})
	}
	sort.Slice(cands, func(i, k int) bool {
		if !cands[i].seen.Equal(cands[k].seen) {
			return cands[i].seen.After(cands[k].seen)
		}
		return cands[i].loc.Worker < cands[k].loc.Worker
	})
	if len(cands) > 2 {
		cands = cands[:2]
	}
	out := make([]SnapshotLocation, len(cands))
	for i, cd := range cands {
		out[i] = cd.loc
	}
	if len(out) > 0 {
		c.metrics.locates.Add(1, "hit")
	} else {
		c.metrics.locates.Add(1, "miss")
	}
	return out
}

// Status snapshots the cluster for /cluster/status.
func (c *Coordinator) Status() StatusView {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	sv := StatusView{Jobs: c.CountsLocked(), Pending: len(c.pending), Degraded: c.degraded}
	for _, name := range slices.Sorted(maps.Keys(c.workers)) {
		w := c.workers[name]
		keys := slices.Sorted(maps.Keys(w.warm))
		brk := c.peers.State(name)
		sv.Workers = append(sv.Workers, WorkerStatus{
			Name:        name,
			Addr:        w.addr,
			LastSeenMS:  now.Sub(w.lastSeen).Milliseconds(),
			Inflight:    len(w.inflight),
			Queue:       w.queue,
			Capacity:    w.capacity,
			Saturated:   w.saturated,
			WarmKeys:    keys,
			Breaker:     brk,
			Quarantined: brk == service.BreakerOpen,
		})
	}
	return sv
}
