package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"pathfinder/internal/cpu"
	"pathfinder/internal/harness"
	"pathfinder/internal/metrics"
)

// Sentinel errors surfaced to API handlers.
var (
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity; the HTTP layer maps it to 503.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining is returned by Submit after Shutdown began.
	ErrDraining = errors.New("service: shutting down, not accepting jobs")
	// ErrNotFound is returned for unknown job IDs.
	ErrNotFound = errors.New("service: no such job")
	// ErrFinished is returned by Cancel on an already-terminal job.
	ErrFinished = errors.New("service: job already finished")
	// ErrBreakerOpen is returned by Submit while an experiment's circuit
	// breaker is open after repeated failures; the HTTP layer maps it to 503.
	ErrBreakerOpen = errors.New("service: circuit breaker open")
)

// Config tunes a Service. The zero value is usable: GOMAXPROCS workers, a
// 256-deep queue, a 2-minute default per-job timeout, the standard
// experiment registry, a discarding logger, no persistence, and no retries.
type Config struct {
	Workers        int              // worker goroutines; <=0 means GOMAXPROCS
	QueueDepth     int              // bounded queue capacity; <=0 means 256
	DefaultTimeout time.Duration    // per-job timeout when the submission names none
	Registry       *Registry        // experiment registry; nil means NewRegistry()
	Logger         *slog.Logger     // structured logger; nil discards
	Clock          func() time.Time // test hook; nil means time.Now

	// DataDir enables durability: every job transition is appended to
	// <DataDir>/journal.jsonl before it is acknowledged, and Open replays
	// the journal on startup, re-queuing jobs that were pending or running
	// when the previous process died. A journal past 4 MiB is compacted to
	// the minimal record set that replays to the identical job table before
	// new records are appended. Empty keeps the service in-memory.
	DataDir string

	// MaxAttempts is the per-job attempt budget: a job whose runner fails is
	// re-queued with backoff until the budget is spent. <=0 means 1 — every
	// failure is terminal, the historical behavior.
	MaxAttempts int

	// RetryBackoff is the base delay before a failed job re-enters the
	// queue; attempt N waits ~2^(N-1) times this, with deterministic jitter,
	// capped at 8x. <=0 means 500ms.
	RetryBackoff time.Duration

	// BreakerThreshold is the number of consecutive terminal failures after
	// which an experiment's circuit breaker opens and submissions are
	// rejected with ErrBreakerOpen. <=0 means 5.
	BreakerThreshold int

	// BreakerCooldown is how long an open breaker waits before admitting a
	// probe submission. <=0 means 30s.
	BreakerCooldown time.Duration

	// ResultCacheSize bounds the in-memory result cache: finished results
	// are kept in an LRU keyed by (experiment, canonical resolved params),
	// and an identical later job is served from the cache — or deduplicated
	// onto an identical in-flight run — instead of re-simulated. The
	// drivers are deterministic functions of their resolved parameters, so
	// a cached result is byte-identical to a fresh run's. Journal replay
	// repopulates the cache on startup. <=0 disables caching, the
	// historical behavior.
	ResultCacheSize int
}

// Service owns the job table, the bounded queue, and the worker pool. All
// experiment execution flows through it; the HTTP layer in server.go is a
// thin translation onto these methods.
type Service struct {
	cfg     Config
	reg     *Registry
	log     *slog.Logger
	metrics *serviceMetrics
	now     func() time.Time
	breaker *KeyedBreaker
	retry   harness.Retry
	journal *Journal     // nil when Config.DataDir is empty
	results *resultCache // nil when Config.ResultCacheSize <= 0

	queue chan *job
	wg    sync.WaitGroup

	mu          sync.Mutex
	jobs        map[string]*job
	order       []string // submission order, for stable listings
	seq         uint64
	draining    bool
	retryTimers map[string]*time.Timer // pending re-enqueues, by job ID
}

// New builds an in-memory Service and starts its worker pool. Durability
// requires Open; New panics if Config.DataDir is set, because silently
// dropping persistence would be worse.
func New(cfg Config) *Service {
	if cfg.DataDir != "" {
		panic("service: New cannot open a data directory, use Open")
	}
	s, err := Open(cfg)
	if err != nil {
		panic(err) // unreachable: every error path needs a DataDir
	}
	return s
}

// Open builds a Service and starts its worker pool. With Config.DataDir
// set, it first replays <DataDir>/journal.jsonl: jobs that already finished
// are restored terminal (ID, state, result and error intact), and jobs that
// were pending or running when the previous process died are re-queued —
// unless their journaled starts already spent the attempt budget, in which
// case they are finalized failed rather than crash-looped. Job and batch
// sequence numbers resume past the highest replayed ID, so restarts never
// reuse an ID.
func Open(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 2 * time.Minute
	}
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 1
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 500 * time.Millisecond
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 30 * time.Second
	}

	var (
		replayed []*ReplayedJob
		maxSeq   uint64
		jr       *Journal
	)
	if cfg.DataDir != "" {
		var err error
		if jr, replayed, maxSeq, err = OpenJournal(filepath.Join(cfg.DataDir, "journal.jsonl"), cfg.Logger); err != nil {
			return nil, err
		}
	}

	// The queue must be able to hold every recovered pending job even when
	// the configured depth is smaller than the backlog the crash left.
	pending := 0
	for _, r := range replayed {
		if !r.Finished && r.Starts < cfg.MaxAttempts {
			pending++
		}
	}
	depth := cfg.QueueDepth
	if pending > depth {
		depth = pending
	}

	s := &Service{
		cfg:         cfg,
		reg:         cfg.Registry,
		log:         cfg.Logger,
		now:         cfg.Clock,
		breaker:     NewKeyedBreaker("experiment", cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock),
		retry:       harness.Retry{Attempts: cfg.MaxAttempts, Backoff: cfg.RetryBackoff},
		journal:     jr,
		results:     newResultCache(cfg.ResultCacheSize),
		queue:       make(chan *job, depth),
		jobs:        make(map[string]*job),
		retryTimers: make(map[string]*time.Timer),
	}
	s.metrics = newServiceMetrics(s)
	s.seq = maxSeq
	recovered := s.install(replayed)

	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(i)
	}
	s.log.Info("service started", "workers", cfg.Workers, "queue_depth", depth,
		"data_dir", cfg.DataDir, "recovered", recovered, "replayed", len(replayed))
	return s, nil
}

// install rebuilds the job table from replayed journal state and re-queues
// the unfinished jobs, returning how many were re-queued. Called before the
// workers start, so no locking is needed yet.
func (s *Service) install(replayed []*ReplayedJob) int {
	recovered := 0
	// Successes re-seed the result cache in finish order, not submission
	// order: the live process stored each result when its job finished, so
	// when the journal holds more successes than the cache holds entries,
	// the restart must keep the most recently *finished* ones — the same
	// survivors the LRU had before the crash — not the most recently
	// submitted. Oldest-first puts reproduce that order exactly.
	var reseed []*job
	for _, r := range replayed {
		j := &job{
			id:         r.ID,
			experiment: r.Experiment,
			params:     r.Params,
			batch:      r.Batch,
			timeout:    r.Timeout,
			submitted:  r.Submitted,
			attempts:   r.Starts,
		}
		if j.timeout <= 0 {
			j.timeout = s.cfg.DefaultTimeout
		}
		switch {
		case r.Finished:
			j.state = r.State
			j.errMsg = r.Error
			j.result = r.Result
			j.stats = r.Stats
			j.started = r.LastStart
			j.finished = r.FinishedAt
			if j.started.IsZero() {
				j.started = j.finished
			}
			if s.results != nil && j.state == StateDone && len(j.result) > 0 {
				reseed = append(reseed, j)
			}
		case r.Starts >= s.cfg.MaxAttempts:
			// The crash consumed the last attempt; re-running would loop a
			// crashing job forever.
			j.state = StateFailed
			j.errMsg = fmt.Sprintf("recovered after crash: %d journaled start(s) exhausted the attempt budget of %d",
				r.Starts, s.cfg.MaxAttempts)
			j.started = r.LastStart
			j.finished = s.now()
			if j.started.IsZero() {
				j.started = j.finished
			}
			s.journal.Append(JournalRecord{Op: OpFinish, Job: j.id, Time: j.finished, State: j.state, Error: j.errMsg})
			s.log.Warn("job finalized on recovery", "job", j.id, "reason", j.errMsg)
		default:
			j.state = StatePending
			s.queue <- j // capacity reserved above
			recovered++
			s.log.Info("job re-queued on recovery", "job", j.id, "experiment", j.experiment, "attempts_used", j.attempts)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	sort.SliceStable(reseed, func(i, k int) bool {
		if !reseed[i].finished.Equal(reseed[k].finished) {
			return reseed[i].finished.Before(reseed[k].finished)
		}
		return reseed[i].id < reseed[k].id // total order even with equal stamps
	})
	for _, j := range reseed {
		if key, ok := resultKeyFor(j.experiment, j.params); ok {
			s.results.put(key, &resultEntry{result: j.result, stats: j.stats})
		}
	}
	s.metrics.recovered.Add(uint64(recovered))
	return recovered
}

// Registry exposes the experiment registry (tests register extra specs).
func (s *Service) Registry() *Registry { return s.reg }

// Metrics is the service's metrics registry, served at GET /metrics; a
// cluster worker registers its own families on it.
func (s *Service) Metrics() *metrics.Registry { return s.metrics.Registry }

// Workers returns the pool size.
func (s *Service) Workers() int { return s.cfg.Workers }

// QueueDepth returns the number of jobs waiting in the queue right now.
func (s *Service) QueueDepth() int { return len(s.queue) }

// Submit validates, records, and enqueues one job. timeout <= 0 selects the
// service default. The returned view is the job's pending snapshot.
func (s *Service) Submit(experiment string, p Params, batch string, timeout time.Duration) (JobView, error) {
	resolved, err := s.reg.Resolve(experiment, p)
	if err != nil {
		return JobView{}, err
	}
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if err := s.breaker.Allow(experiment); err != nil {
		return JobView{}, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobView{}, ErrDraining
	}
	s.seq++
	j := &job{
		id:         fmt.Sprintf("job-%06d", s.seq),
		experiment: experiment,
		params:     resolved,
		batch:      batch,
		timeout:    timeout,
		state:      StatePending,
		submitted:  s.now(),
	}
	// Reserve queue space while holding the lock so the job table and the
	// queue can't disagree about admission.
	select {
	case s.queue <- j:
	default:
		s.seq--
		s.mu.Unlock()
		return JobView{}, ErrQueueFull
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.journal.Append(JournalRecord{
		Op: OpSubmit, Job: j.id, Time: j.submitted,
		Experiment: experiment, Params: &resolved, Batch: batch,
		TimeoutMS: timeout.Milliseconds(),
	})
	v := j.view()
	s.mu.Unlock()

	s.metrics.submitted.Add(1, experiment)
	s.log.Info("job submitted", "job", j.id, "experiment", experiment, "batch", batch)
	return v, nil
}

// SubmitSweep expands a parameter sweep — the cross product of the given
// microarchitectures and seeds over a base Params — into one job per point,
// all tagged with the same batch ID. Empty sweep axes default to the base
// value, so a sweep over only seeds or only archs works naturally.
func (s *Service) SubmitSweep(experiment string, base Params, archs []string, seeds []int64, timeout time.Duration) (string, []JobView, error) {
	if len(archs) == 0 {
		archs = []string{base.Arch}
	}
	if len(seeds) == 0 {
		seeds = []int64{base.Seed}
	}
	// Validate every axis value up front: a sweep admits all points or none.
	for _, a := range archs {
		if _, err := ArchConfig(a); err != nil {
			return "", nil, err
		}
	}
	if _, err := s.reg.Resolve(experiment, base); err != nil {
		return "", nil, err
	}
	if n, cap := len(archs)*len(seeds), s.cfg.QueueDepth; n > cap {
		return "", nil, fmt.Errorf("%w: sweep of %d jobs exceeds queue depth %d", ErrQueueFull, n, cap)
	}

	batch := s.NewBatch()
	views := make([]JobView, 0, len(archs)*len(seeds))
	for _, a := range archs {
		for _, seed := range seeds {
			p := base
			p.Arch = a
			p.Seed = seed
			v, err := s.Submit(experiment, p, batch, timeout)
			if err != nil {
				return batch, views, err
			}
			views = append(views, v)
		}
	}
	s.log.Info("batch submitted", "batch", batch, "experiment", experiment, "jobs", len(views))
	return batch, views, nil
}

// NewBatch allocates a batch ID from the job sequence.
func (s *Service) NewBatch() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return fmt.Sprintf("batch-%06d", s.seq)
}

// Get returns a job snapshot.
func (s *Service) Get(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return j.view(), nil
}

// ListFilter narrows List output; zero fields match everything.
type ListFilter struct {
	State      State
	Batch      string
	Experiment string
}

// List returns snapshots of matching jobs in submission order.
func (s *Service) List(f ListFilter) []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
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

// StateCounts tallies jobs by state. The five counts always sum to the
// total ever submitted, which is what /metrics exposes and what the batch
// status endpoint reports.
func (s *Service) StateCounts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[State]int, 5)
	for _, st := range States() {
		out[st] = 0
	}
	for _, j := range s.jobs {
		out[j.state]++
	}
	return out
}

// Cancel aborts a job. A pending job is finalized immediately (workers skip
// it when it surfaces from the queue); a running job has its context
// cancelled and reaches the cancelled state when the runner unwinds.
func (s *Service) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobView{}, ErrNotFound
	}
	if j.state.Terminal() {
		v := j.view()
		s.mu.Unlock()
		return v, ErrFinished
	}
	j.cancelRequested = true
	var cancel func()
	if j.state == StatePending {
		// A pending job may be sitting in the queue or waiting on a retry
		// timer; either way it finalizes here and the worker/timer skips it.
		if t := s.retryTimers[id]; t != nil {
			t.Stop()
			delete(s.retryTimers, id)
		}
		j.state = StateCancelled
		j.finished = s.now()
		j.started = j.finished
		s.journal.Append(JournalRecord{Op: OpFinish, Job: id, Time: j.finished, State: StateCancelled})
		s.metrics.jobFinished(j.experiment, StateCancelled, 0, j.stats)
	} else if j.cancel != nil {
		cancel = j.cancel
	}
	v := j.view()
	s.mu.Unlock()

	if cancel != nil {
		cancel()
	}
	s.log.Info("job cancel requested", "job", id, "state", string(v.State))
	return v, nil
}

// Shutdown stops admission, drains the queue, and waits for in-flight jobs.
// If ctx expires first, every remaining job's context is cancelled and
// Shutdown keeps waiting for the workers to unwind, so the pool never
// leaks goroutines.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("service: Shutdown called twice")
	}
	s.draining = true
	// Jobs parked on retry timers would otherwise dangle pending forever:
	// stop the timers and finalize them with their last error. The journal
	// records them failed, so a later restart does not resurrect them.
	for id, t := range s.retryTimers {
		t.Stop()
		delete(s.retryTimers, id)
		if j := s.jobs[id]; j != nil && j.state == StatePending {
			s.finalizeLocked(j, StateFailed, "shutdown before retry: "+j.lastErr)
		}
	}
	s.mu.Unlock()
	close(s.queue)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.log.Warn("drain deadline hit, cancelling in-flight jobs")
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.cancel != nil {
				j.cancelRequested = true
				j.cancel()
			}
		}
		s.mu.Unlock()
		<-done
	}
	if cerr := s.journal.Close(); cerr != nil && err == nil {
		err = cerr
	}
	s.log.Info("service drained")
	return err
}

// finalizeLocked moves a non-terminal job to a terminal state outside the
// worker path (cancel-on-shutdown, retry-timer teardown). Caller holds s.mu.
func (s *Service) finalizeLocked(j *job, st State, msg string) {
	j.state = st
	j.errMsg = msg
	j.finished = s.now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	s.journal.Append(JournalRecord{Op: OpFinish, Job: j.id, Time: j.finished, State: st, Error: msg})
	s.metrics.jobFinished(j.experiment, st, 0, j.stats)
}

// worker drains the queue until Shutdown closes it.
func (s *Service) worker(id int) {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(id, j)
	}
}

// runJob executes one job with a per-job timeout, panic recovery, and
// metric accounting.
func (s *Service) runJob(workerID int, j *job) {
	s.mu.Lock()
	if j.state != StatePending { // cancelled while queued
		s.mu.Unlock()
		return
	}
	exp, ok := s.reg.Get(j.experiment)
	if !ok {
		// Unregistered between submit and execution; fail rather than panic.
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("experiment %q vanished from the registry", j.experiment)
		j.started = s.now()
		j.finished = j.started
		s.journal.Append(JournalRecord{Op: OpFinish, Job: j.id, Time: j.finished, State: StateFailed, Error: j.errMsg})
		s.metrics.jobFinished(j.experiment, StateFailed, 0, j.stats)
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), j.timeout)
	j.cancel = cancel
	j.state = StateRunning
	j.started = s.now()
	j.attempts++
	attempt := j.attempts
	s.journal.Append(JournalRecord{Op: OpStart, Job: j.id, Time: j.started, Attempt: attempt})
	s.metrics.started.Add(1)
	s.mu.Unlock()
	defer cancel()

	s.log.Info("job started", "job", j.id, "experiment", j.experiment, "worker", workerID, "attempt", attempt)

	raw, stats, err := s.execute(ctx, exp.Run, j)

	s.mu.Lock()
	j.cancel = nil
	j.finished = s.now()
	j.stats = stats
	switch {
	case j.cancelRequested:
		j.state = StateCancelled
		if err == nil {
			err = context.Canceled
		}
		j.errMsg = err.Error()
	case err != nil && j.attempts < s.cfg.MaxAttempts && !s.draining:
		// Attempt budget left: back to pending, re-enqueued after a backoff
		// with deterministic jitter. The journal's retry record plus the
		// next start record keep the attempt count recoverable.
		s.scheduleRetryLocked(j, err)
		s.mu.Unlock()
		return
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("timeout after %s", j.timeout)
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
	default:
		j.state = StateDone
		j.result = raw
	}
	state, dur := j.state, j.finished.Sub(j.started)
	s.journal.Append(JournalRecord{
		Op: OpFinish, Job: j.id, Time: j.finished,
		State: state, Error: j.errMsg, Result: j.result, Stats: stats,
	})
	s.metrics.jobFinished(j.experiment, state, dur, stats)
	s.mu.Unlock()

	switch state {
	case StateDone:
		s.breaker.Record(j.experiment, true)
	case StateFailed:
		s.breaker.Record(j.experiment, false)
		s.metrics.failures.Add(1, j.experiment, string(classifyFailure(err, j.errMsg)))
	}

	s.log.Info("job finished", "job", j.id, "experiment", j.experiment,
		"state", string(state), "duration", dur, "attempts", j.attempts, "err", j.errMsg)
}

// execute produces one job's marshaled result: served from the result
// cache on a key hit, adopted from an identical in-flight job (dedup), or
// computed by running the experiment. Only clean successes enter the cache;
// a cancelled run is not cached even when the runner managed to finish, so
// a cancelled-but-complete result can never masquerade as a success for the
// next submitter.
func (s *Service) execute(ctx context.Context, run Runner, j *job) (json.RawMessage, cpu.Counters, error) {
	key, keyOK := resultKey{}, false
	if s.results != nil {
		key, keyOK = resultKeyFor(j.experiment, j.params)
	}
	if !keyOK {
		result, stats, err := runRecovered(ctx, run, j.params)
		return marshalResult(result, stats, err)
	}
	if e, ok := s.results.get(key); ok {
		s.metrics.cacheHits.Add(1, j.experiment)
		return e.result, e.stats, nil
	}
	s.metrics.cacheMisses.Add(1, j.experiment)
	deduped := false
	for {
		flight, leader := s.results.begin(key)
		if leader {
			result, stats, err := runRecovered(ctx, run, j.params)
			raw, stats, err := marshalResult(result, stats, err)
			var entry *resultEntry
			if err == nil && !s.cancelRequested(j) {
				entry = &resultEntry{result: raw, stats: stats}
			}
			s.results.finish(key, flight, entry)
			return raw, stats, err
		}
		if !deduped {
			deduped = true
			s.metrics.cacheDedup.Add(1, j.experiment)
		}
		select {
		case <-flight.done:
			if flight.entry != nil {
				return flight.entry.result, flight.entry.stats, nil
			}
			// The leader failed or was cancelled; loop and run for real
			// (possibly becoming the next leader).
		case <-ctx.Done():
			return nil, cpu.Counters{}, ctx.Err()
		}
	}
}

// cancelRequested reads the job's cancellation flag under the lock.
func (s *Service) cancelRequested(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.cancelRequested
}

// marshalResult serializes a successful runner outcome.
func marshalResult(result any, stats cpu.Counters, err error) (json.RawMessage, cpu.Counters, error) {
	if err != nil {
		return nil, stats, err
	}
	raw, err := json.Marshal(result)
	if err != nil {
		return nil, stats, fmt.Errorf("marshaling result: %w", err)
	}
	return raw, stats, nil
}

// scheduleRetryLocked parks a failed job as pending and arms the timer that
// re-enqueues it. Caller holds s.mu.
func (s *Service) scheduleRetryLocked(j *job, cause error) {
	j.state = StatePending
	j.lastErr = cause.Error()
	j.finished = time.Time{}
	delay := s.retry.Delay(j.attempts, retrySeed(j.id))
	s.journal.Append(JournalRecord{Op: OpRetry, Job: j.id, Time: s.now(), Attempt: j.attempts, Error: j.lastErr})
	s.metrics.retried.Add(1, j.experiment)
	id := j.id
	s.retryTimers[id] = time.AfterFunc(delay, func() { s.requeue(id) })
	s.log.Warn("job retry scheduled", "job", id, "experiment", j.experiment,
		"attempt", j.attempts, "of", s.cfg.MaxAttempts, "delay", delay, "err", j.lastErr)
}

// requeue moves a retry-parked job back into the queue when its backoff
// timer fires. The draining check under the lock makes the send safe:
// Shutdown flips draining before closing the queue, also under the lock.
func (s *Service) requeue(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.retryTimers, id)
	j := s.jobs[id]
	if j == nil || j.state != StatePending {
		return // cancelled (or otherwise finalized) while waiting
	}
	if s.draining {
		s.finalizeLocked(j, StateFailed, "shutdown before retry: "+j.lastErr)
		return
	}
	select {
	case s.queue <- j:
	default:
		s.finalizeLocked(j, StateFailed, "queue full on retry: "+j.lastErr)
	}
}

// retrySeed derives the deterministic backoff-jitter seed from a job ID.
func retrySeed(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64())
}

// classifyFailure buckets a terminal failure for the metrics surface.
func classifyFailure(err error, msg string) failureClass {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return failTimeout
	case strings.HasPrefix(msg, "experiment panicked"):
		return failPanic
	default:
		return failError
	}
}

// runRecovered invokes the runner, converting a panic into an error so one
// bad experiment cannot take down a worker goroutine.
func runRecovered(ctx context.Context, run Runner, p Params) (result any, stats cpu.Counters, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return run(ctx, p)
}
