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

// clusterJob is the coordinator's mutable job record, guarded by
// Coordinator.mu past the immutable header.
type clusterJob struct {
	id         string
	experiment string
	params     service.Params // resolved
	batch      string
	timeout    time.Duration

	state           service.State
	submitted       time.Time
	started         time.Time
	finished        time.Time
	assignedTo      string
	leaseExpiry     time.Time
	assigns         int // accepted assignments consumed
	workerAttempts  int // attempts the finishing worker reported
	result          json.RawMessage
	errMsg          string
	stats           cpu.Counters
	cancelRequested bool
}

// view projects the job; caller holds Coordinator.mu.
func (j *clusterJob) view() service.JobView {
	v := service.JobView{
		ID:         j.id,
		Experiment: j.experiment,
		Params:     j.params,
		Batch:      j.batch,
		State:      j.state,
		Submitted:  j.submitted,
		Attempts:   j.workerAttempts,
		Result:     j.result,
		Error:      j.errMsg,
		Worker:     j.assignedTo,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
		if !j.started.IsZero() {
			v.DurationMS = j.finished.Sub(j.started).Milliseconds()
		}
	}
	if j.stats != (cpu.Counters{}) {
		s := j.stats
		v.SimStats = &s
	}
	return v
}

// Coordinator owns the cluster job table, the pending queue, the worker
// directory, and the dispatch loop that pushes assignments to workers.
type Coordinator struct {
	cfg     CoordinatorConfig
	reg     *service.Registry
	log     *slog.Logger
	now     func() time.Time
	client  *http.Client
	metrics *coordMetrics
	journal *service.Journal // nil without DataDir
	peers   *service.KeyedBreaker

	mu            sync.Mutex
	jobs          map[string]*clusterJob
	order         []string // submission order
	pending       []string // unassigned job IDs, FIFO
	workers       map[string]*workerState
	affinity      map[string]map[string]time.Time // warm group → worker → last success
	seq           uint64
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

	c := &Coordinator{
		cfg:      cfg,
		reg:      cfg.Registry,
		log:      cfg.Logger,
		now:      cfg.Clock,
		client:   cfg.HTTPClient,
		peers:    service.NewKeyedBreaker("peer", cfg.PeerBreakerThreshold, cfg.PeerBreakerCooldown, cfg.Clock),
		jobs:     make(map[string]*clusterJob),
		workers:  make(map[string]*workerState),
		affinity: make(map[string]map[string]time.Time),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	c.metrics = newCoordMetrics(c)

	// Journal replay restores terminal jobs intact and re-queues the rest
	// unassigned, with a fresh assignment budget: a crash invalidates every
	// lease. Workers keep resending unacked results across the restart, so
	// jobs that finished during the outage converge without re-execution.
	if cfg.DataDir != "" {
		journal, replayed, maxSeq, err := service.OpenJournal(filepath.Join(cfg.DataDir, "coordinator.jsonl"), cfg.Logger)
		if err != nil {
			return nil, err
		}
		c.journal = journal
		c.seq = maxSeq
		recovered := 0
		for _, r := range replayed {
			j := &clusterJob{
				id:         r.ID,
				experiment: r.Experiment,
				params:     r.Params,
				batch:      r.Batch,
				timeout:    r.Timeout,
				submitted:  r.Submitted,
			}
			if j.timeout <= 0 {
				j.timeout = cfg.DefaultTimeout
			}
			if r.Finished {
				j.state = r.State
				j.errMsg = r.Error
				j.result = r.Result
				j.stats = r.Stats
				j.finished = r.FinishedAt
				j.started = r.FinishedAt
			} else {
				j.state = service.StatePending
				c.pending = append(c.pending, j.id)
				recovered++
			}
			c.jobs[j.id] = j
			c.order = append(c.order, j.id)
		}
		c.metrics.recovered.Add(uint64(recovered))
		c.log.Info("coordinator journal replayed", "jobs", len(replayed), "recovered", recovered)
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

// Registry is the experiment registry submissions validate against.
func (c *Coordinator) Registry() *service.Registry { return c.reg }

// Submit validates against the registry, records the job and queues it for
// assignment. Mirrors service.Service.Submit semantics.
func (c *Coordinator) Submit(experiment string, p service.Params, batch string, timeout time.Duration) (service.JobView, error) {
	resolved, err := c.reg.Resolve(experiment, p)
	if err != nil {
		return service.JobView{}, err
	}
	if timeout <= 0 {
		timeout = c.cfg.DefaultTimeout
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return service.JobView{}, service.ErrDraining
	}
	if len(c.pending) >= c.cfg.MaxPending {
		c.mu.Unlock()
		return service.JobView{}, service.ErrQueueFull
	}
	c.seq++
	j := &clusterJob{
		id:         fmt.Sprintf("cjob-%06d", c.seq),
		experiment: experiment,
		params:     resolved,
		batch:      batch,
		timeout:    timeout,
		state:      service.StatePending,
		submitted:  c.now(),
	}
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.pending = append(c.pending, j.id)
	c.journal.Append(service.JournalRecord{
		Op: service.OpSubmit, Job: j.id, Time: j.submitted,
		Experiment: experiment, Params: &resolved, Batch: batch,
		TimeoutMS: timeout.Milliseconds(),
	})
	v := j.view()
	c.mu.Unlock()

	c.metrics.submitted.Add(1)
	c.kickDispatch()
	c.log.Info("cluster job submitted", "job", j.id, "experiment", experiment, "batch", batch)
	return v, nil
}

// SubmitSweep expands archs × seeds over base params into one batch,
// mirroring service.Service.SubmitSweep.
func (c *Coordinator) SubmitSweep(experiment string, base service.Params, archs []string, seeds []int64, timeout time.Duration) (string, []service.JobView, error) {
	if len(archs) == 0 {
		archs = []string{base.Arch}
	}
	if len(seeds) == 0 {
		seeds = []int64{base.Seed}
	}
	for _, a := range archs {
		if _, err := service.ArchConfig(a); err != nil {
			return "", nil, err
		}
	}
	if _, err := c.reg.Resolve(experiment, base); err != nil {
		return "", nil, err
	}
	if n := len(archs) * len(seeds); n > c.cfg.MaxPending {
		return "", nil, fmt.Errorf("%w: sweep of %d jobs exceeds pending bound %d", service.ErrQueueFull, n, c.cfg.MaxPending)
	}

	batch := c.NewBatch()
	views := make([]service.JobView, 0, len(archs)*len(seeds))
	for _, a := range archs {
		for _, seed := range seeds {
			p := base
			p.Arch = a
			p.Seed = seed
			v, err := c.Submit(experiment, p, batch, timeout)
			if err != nil {
				return batch, views, err
			}
			views = append(views, v)
		}
	}
	return batch, views, nil
}

// NewBatch allocates a batch ID from the job sequence.
func (c *Coordinator) NewBatch() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	return fmt.Sprintf("cbatch-%06d", c.seq)
}

// Get returns one job's view.
func (c *Coordinator) Get(id string) (service.JobView, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return service.JobView{}, service.ErrNotFound
	}
	return j.view(), nil
}

// List returns matching jobs in submission order.
func (c *Coordinator) List(f service.ListFilter) []service.JobView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]service.JobView, 0, len(c.order))
	for _, id := range c.order {
		j := c.jobs[id]
		if f.State != "" && j.state != f.State {
			continue
		}
		if f.Batch != "" && j.batch != f.Batch {
			continue
		}
		if f.Experiment != "" && j.experiment != f.Experiment {
			continue
		}
		out = append(out, j.view())
	}
	return out
}

// Cancel aborts a job: an unassigned pending job finalizes immediately; an
// assigned job is cancelled on its worker through the next heartbeat reply
// and finalizes when the worker reports the cancelled result.
func (c *Coordinator) Cancel(id string) (service.JobView, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return service.JobView{}, service.ErrNotFound
	}
	if j.state.Terminal() {
		return j.view(), service.ErrFinished
	}
	j.cancelRequested = true
	if j.assignedTo == "" {
		c.finalizeLocked(j, service.StateCancelled, "", nil, cpu.Counters{}, 0)
	}
	return j.view(), nil
}

// finalizeLocked moves a job to a terminal state. Caller holds c.mu.
func (c *Coordinator) finalizeLocked(j *clusterJob, st service.State, errMsg string, result json.RawMessage, stats cpu.Counters, workerAttempts int) {
	j.state = st
	j.errMsg = errMsg
	j.result = result
	j.stats = stats
	j.workerAttempts = workerAttempts
	j.finished = c.now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	// assignedTo is kept: a terminal job's view shows which worker ran it
	// (the scheduler ignores terminal jobs, so the stale lease is inert).
	j.leaseExpiry = time.Time{}
	c.journal.Append(service.JournalRecord{
		Op: service.OpFinish, Job: j.id, Time: j.finished,
		State: st, Error: errMsg, Result: result, Stats: stats,
	})
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
	g := affinityGroup(j.experiment, j.params)
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
			if j := c.jobs[id]; j != nil && !j.state.Terminal() && j.assignedTo == name {
				c.requeueLocked(j, fmt.Sprintf("worker %s expired", name))
			}
		}
		delete(c.workers, name)
		c.log.Warn("worker expired", "worker", name, "last_seen", w.lastSeen)
	}
	for _, id := range c.order {
		j := c.jobs[id]
		// Degraded-mode jobs run in this process and hold no lease.
		if j.assignedTo == degradedWorker {
			continue
		}
		if j.assignedTo != "" && !j.state.Terminal() && now.After(j.leaseExpiry) {
			c.requeueLocked(j, "lease expired")
		}
	}
}

// requeueLocked returns an assigned job to the pending queue — or finalizes
// it failed once the assignment budget is spent. Caller holds c.mu.
func (c *Coordinator) requeueLocked(j *clusterJob, reason string) {
	if w := c.workers[j.assignedTo]; w != nil {
		delete(w.inflight, j.id)
	}
	worker := j.assignedTo
	j.assignedTo = ""
	j.leaseExpiry = time.Time{}
	if j.assigns >= c.cfg.MaxAssigns {
		c.finalizeLocked(j, service.StateFailed,
			fmt.Sprintf("%s after %d assignment(s), budget %d exhausted", reason, j.assigns, c.cfg.MaxAssigns),
			nil, cpu.Counters{}, 0)
		return
	}
	j.state = service.StatePending
	j.started = time.Time{}
	// Requeue at the front: a reassigned job is older than anything pending.
	c.pending = append([]string{j.id}, c.pending...)
	c.journal.Append(service.JournalRecord{Op: service.OpRequeue, Job: j.id, Time: c.now(), Worker: worker, Reason: reason})
	c.metrics.reassigned.Add(1)
	c.log.Warn("cluster job requeued", "job", j.id, "worker", worker, "reason", reason, "assigns", j.assigns)
}

// assignment is one dispatch decision, executed outside the lock.
type assignment struct {
	job    *clusterJob
	worker string
	addr   string
	req    RunRequest
}

// degradedWorker is the assignedTo marker for jobs the coordinator runs
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
		j := c.jobs[id]
		if j == nil || j.state != service.StatePending || j.assignedTo != "" || j.state.Terminal() {
			continue // cancelled or already handled
		}
		w := c.pickWorkerLocked(j, now)
		if w == nil {
			remaining = append(remaining, id)
			continue
		}
		j.assignedTo = w.name
		j.leaseExpiry = now.Add(c.cfg.LeaseTTL)
		w.inflight[j.id] = struct{}{}
		work = append(work, assignment{
			job:    j,
			worker: w.name,
			addr:   w.addr,
			req: RunRequest{
				ID:         j.id,
				Experiment: j.experiment,
				Params:     j.params,
				TimeoutMS:  j.timeout.Milliseconds(),
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
				j := c.jobs[id]
				if j == nil || j.state != service.StatePending || j.assignedTo != "" {
					continue
				}
				if c.localInflight+len(local) >= c.cfg.MaxInflightPerWorker {
					rest = append(rest, id)
					continue
				}
				j.assignedTo = degradedWorker
				j.state = service.StateRunning
				j.started = now
				j.assigns++
				c.journal.Append(service.JournalRecord{Op: service.OpAssign, Job: j.id, Time: now, Worker: degradedWorker})
				local = append(local, j)
			}
			c.pending = rest
			c.localInflight += len(local)
		}
	}
	c.mu.Unlock()

	for _, j := range local {
		c.log.Warn("degraded mode: running job in-process", "job", j.id)
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

	exp, ok := c.reg.Get(j.experiment)
	var (
		result any
		stats  cpu.Counters
		err    error
	)
	if !ok || exp.Run == nil {
		err = fmt.Errorf("experiment %q not runnable on the coordinator", j.experiment)
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), j.timeout)
		func() {
			defer cancel()
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("experiment panicked: %v", r)
				}
			}()
			result, stats, err = exp.Run(ctx, j.params)
		}()
	}
	var raw json.RawMessage
	if err == nil {
		raw, err = json.Marshal(result)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	st := service.StateDone
	errMsg := ""
	if j.cancelRequested {
		st, raw = service.StateCancelled, nil
	} else if err != nil {
		st, errMsg, raw = service.StateFailed, err.Error(), nil
	}
	c.finalizeLocked(j, st, errMsg, raw, stats, 1)
	if st == service.StateDone {
		c.metrics.degradedRuns.Add(1)
	}
	c.metrics.results.Add(1, string(st))
	c.log.Info("degraded-mode job finished", "job", j.id, "state", string(st))
}

// pickWorkerLocked selects the destination: least-loaded among the job's
// warm-group holders, else least-loaded overall, considering only workers
// whose peer breaker is closed. When no healthy worker is eligible, a
// quarantined worker whose cooldown has lapsed may be admitted as a single
// probe. Iteration is name-sorted so ties break deterministically. Caller
// holds c.mu.
func (c *Coordinator) pickWorkerLocked(j *clusterJob, now time.Time) *workerState {
	holders := c.affinity[affinityGroup(j.experiment, j.params)]

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
			c.log.Info("probing quarantined worker", "worker", name, "job", j.id)
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
			if j := c.jobs[id]; j != nil && !j.state.Terminal() && j.assignedTo == name {
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
			delete(w.inflight, j.id)
			if saturated {
				w.saturated = true
			}
		}
		if !j.state.Terminal() && j.assignedTo == worker {
			j.assignedTo = ""
			j.leaseExpiry = time.Time{}
			c.pending = append([]string{j.id}, c.pending...)
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
		rr := byID[j.id]
		switch {
		case rr.Accepted:
			c.peers.Record(worker, true)
			if j.state.Terminal() || j.assignedTo != worker {
				continue // raced with a result or a concurrent requeue
			}
			j.assigns++
			c.journal.Append(service.JournalRecord{Op: service.OpAssign, Job: j.id, Time: c.now(), Worker: worker})
			c.metrics.assigned.Add(1, worker)
			c.log.Info("cluster job assigned", "job", j.id, "worker", worker, "assign", j.assigns)
		case rr.Saturated:
			requeue(a, true)
			c.metrics.backpressure.Add(1)
			c.log.Info("worker saturated, job requeued", "job", j.id, "worker", worker)
		default:
			// Reachable but not accepting this job (rejected or missing from
			// the reply) — treat like backpressure, not sickness.
			requeue(a, false)
			c.metrics.assignErrors.Add(1)
			c.log.Warn("assignment rejected, job requeued", "job", j.id, "worker", worker, "reason", rr.Error)
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
		j := c.jobs[id]
		if j == nil || j.state.Terminal() || j.assignedTo != hb.Worker {
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
		j.leaseExpiry = now.Add(c.cfg.LeaseTTL)
		if st == service.StateRunning && j.state == service.StatePending {
			j.state = service.StateRunning
			j.started = now
		}
		if j.cancelRequested {
			cancels = append(cancels, id)
		}
	}
	// Jobs the worker reports but no longer owns (lease lost, job finished
	// elsewhere): cancel them so the worker stops spending cycles.
	for id := range reported {
		j := c.jobs[id]
		if j == nil || j.state.Terminal() || j.assignedTo != hb.Worker {
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
		j := c.jobs[r.ID]
		if j == nil {
			continue
		}
		if j.state.Terminal() {
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
		if j.assignedTo != p.Worker && r.State != service.StateDone {
			continue
		}
		if w := c.workers[p.Worker]; w != nil {
			delete(w.inflight, r.ID)
		}
		st := r.State
		if j.cancelRequested {
			st = service.StateCancelled
		}
		var stats cpu.Counters
		if r.Stats != nil {
			stats = *r.Stats
		}
		j.assignedTo = p.Worker // credit the worker that actually finished
		c.finalizeLocked(j, st, r.Error, r.Result, stats, r.Attempts)
		if st == service.StateDone {
			c.noteAffinityLocked(j, p.Worker)
		}
		c.metrics.results.Add(1, string(st))
		c.log.Info("cluster job finished", "job", j.id, "worker", p.Worker, "state", string(st))
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
	sv := StatusView{Jobs: make(map[service.State]int, 5), Pending: len(c.pending), Degraded: c.degraded}
	for _, st := range service.States() {
		sv.Jobs[st] = 0
	}
	for _, j := range c.jobs {
		sv.Jobs[j.state]++
	}
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
