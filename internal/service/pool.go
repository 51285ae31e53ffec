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

// Service owns a job table, the bounded queue, and the worker pool. All
// experiment execution flows through it; the HTTP layer in server.go is a
// thin translation onto these methods. The embedded Table supplies Submit,
// SubmitSweep, NewBatch, Get, List and StateCounts.
type Service struct {
	*Table[runState]

	cfg     Config
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
	draining    bool
	retryTimers map[string]*time.Timer // pending re-enqueues, by job ID
}

// runState is what the service alone keeps per job.
type runState struct {
	cancel  func() // aborts the in-flight run; non-nil only while running
	lastErr string // error that parked the job on a retry timer
}

// job is the service's record in its table.
type job = Job[runState]

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
		log:         cfg.Logger,
		now:         cfg.Clock,
		breaker:     NewKeyedBreaker("experiment", cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock),
		retry:       harness.Retry{Attempts: cfg.MaxAttempts, Backoff: cfg.RetryBackoff},
		journal:     jr,
		results:     newResultCache(cfg.ResultCacheSize),
		queue:       make(chan *job, depth),
		retryTimers: make(map[string]*time.Timer),
	}
	s.Table = NewTable(TableConfig[runState]{
		Lock: &s.mu, JobPrefix: "job-", BatchPrefix: "batch-",
		Registry: cfg.Registry, Journal: jr, Logger: cfg.Logger, Clock: cfg.Clock,
		DefaultTimeout: cfg.DefaultTimeout, QueueBound: cfg.QueueDepth,
		Gate:      s.breaker.Allow,
		Admit:     s.admit,
		Submitted: func(experiment string) { s.metrics.submitted.Add(1, experiment) },
	})
	s.metrics = newServiceMetrics(s)
	recovered := s.install(replayed, maxSeq)

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
func (s *Service) install(replayed []*ReplayedJob, maxSeq uint64) int {
	recovered := 0
	s.Restore(replayed, maxSeq, func(j *job, r *ReplayedJob) {
		if j.Attempts >= s.cfg.MaxAttempts {
			// The crash consumed the last attempt; re-running would loop a
			// crashing job forever.
			j.Started = r.LastStart
			s.FinishLocked(j, StateFailed, fmt.Sprintf("recovered after crash: %d journaled start(s) exhausted the attempt budget of %d",
				j.Attempts, s.cfg.MaxAttempts), nil, j.Stats)
			s.log.Warn("job finalized on recovery", "job", j.ID, "reason", j.Error)
			return
		}
		s.queue <- j // capacity reserved above
		recovered++
		s.log.Info("job re-queued on recovery", "job", j.ID, "experiment", j.Experiment, "attempts_used", j.Attempts)
	})
	// Successes re-seed the result cache in finish order, not submission
	// order: the live process stored each result when its job finished, so
	// when the journal holds more successes than the cache holds entries,
	// the restart must keep the most recently *finished* ones — the same
	// survivors the LRU had before the crash — not the most recently
	// submitted. Oldest-first puts reproduce that order exactly.
	var reseed []*ReplayedJob
	for _, r := range replayed {
		if s.results != nil && r.Finished && r.State == StateDone && len(r.Result) > 0 {
			reseed = append(reseed, r)
		}
	}
	sort.SliceStable(reseed, func(i, k int) bool {
		if !reseed[i].FinishedAt.Equal(reseed[k].FinishedAt) {
			return reseed[i].FinishedAt.Before(reseed[k].FinishedAt)
		}
		return reseed[i].ID < reseed[k].ID // total order even with equal stamps
	})
	for _, r := range reseed {
		if key, ok := resultKeyFor(r.Experiment, r.Params); ok {
			s.results.put(key, &resultEntry{result: r.Result, stats: r.Stats})
		}
	}
	s.metrics.recovered.Add(uint64(recovered))
	return recovered
}

// Metrics is the service's metrics registry, served at GET /metrics; a
// cluster worker registers its own families on it.
func (s *Service) Metrics() *metrics.Registry { return s.metrics.Registry }

// Workers returns the pool size.
func (s *Service) Workers() int { return s.cfg.Workers }

// QueueDepth returns the number of jobs waiting in the queue right now.
func (s *Service) QueueDepth() int { return len(s.queue) }

// admit queues a new job, or refuses it while draining or when the queue
// is full. It runs under s.mu, which Shutdown also holds to flip draining
// before it closes the queue, so the send never hits a closed channel.
func (s *Service) admit(j *job) error {
	if s.draining {
		return ErrDraining
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return ErrQueueFull
	}
}

// Cancel aborts a job. A pending job is finalized immediately (workers skip
// it when it surfaces from the queue); a running job has its context
// cancelled and reaches the cancelled state when the runner unwinds.
func (s *Service) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	j := s.JobLocked(id)
	if j == nil {
		s.mu.Unlock()
		return JobView{}, ErrNotFound
	}
	if j.State.Terminal() {
		v := j.View()
		s.mu.Unlock()
		return v, ErrFinished
	}
	j.CancelRequested = true
	cancel := j.Own.cancel
	if j.State == StatePending {
		// A pending job may be sitting in the queue or waiting on a retry
		// timer; either way it finalizes here and the worker/timer skips it.
		if t := s.retryTimers[id]; t != nil {
			t.Stop()
			delete(s.retryTimers, id)
		}
		s.finalizeLocked(j, StateCancelled, "")
		j.Started = j.Finished // no run time, even after a failed attempt
	}
	v := j.View()
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
		if j := s.JobLocked(id); j != nil && j.State == StatePending {
			s.finalizeLocked(j, StateFailed, "shutdown before retry: "+j.Own.lastErr)
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
		for j := range s.JobsLocked() {
			if j.Own.cancel != nil {
				j.CancelRequested = true
				j.Own.cancel()
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
	s.FinishLocked(j, st, msg, nil, j.Stats)
	s.metrics.jobFinished(j.Experiment, st, 0, j.Stats)
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
	if j.State != StatePending { // cancelled while queued
		s.mu.Unlock()
		return
	}
	exp, ok := s.Registry().Get(j.Experiment)
	if !ok {
		// A replayed job can name an experiment this process never
		// registered; fail rather than panic.
		s.finalizeLocked(j, StateFailed, fmt.Sprintf("experiment %q vanished from the registry", j.Experiment))
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), j.Timeout)
	j.Own.cancel = cancel
	j.State = StateRunning
	j.Started = s.now()
	j.Attempts++
	attempt := j.Attempts
	s.journal.Append(JournalRecord{Op: OpStart, Job: j.ID, Time: j.Started, Attempt: attempt})
	s.metrics.started.Add(1)
	s.mu.Unlock()
	defer cancel()

	s.log.Info("job started", "job", j.ID, "experiment", j.Experiment, "worker", workerID, "attempt", attempt)

	raw, stats, err := s.execute(ctx, exp.Run, j)

	s.mu.Lock()
	j.Own.cancel = nil
	state, errMsg := StateDone, ""
	switch {
	case j.CancelRequested:
		if err == nil {
			err = context.Canceled
		}
		state, errMsg, raw = StateCancelled, err.Error(), nil
	case err != nil && attempt < s.cfg.MaxAttempts && !s.draining:
		// Attempt budget left: back to pending, re-enqueued after a backoff
		// with deterministic jitter. The journal's retry record plus the
		// next start record keep the attempt count recoverable.
		j.Stats = stats
		s.scheduleRetryLocked(j, err)
		s.mu.Unlock()
		return
	case errors.Is(err, context.DeadlineExceeded):
		state, errMsg = StateFailed, fmt.Sprintf("timeout after %s", j.Timeout)
	case err != nil:
		state, errMsg = StateFailed, err.Error()
	}
	s.FinishLocked(j, state, errMsg, raw, stats)
	dur := j.Finished.Sub(j.Started)
	s.metrics.jobFinished(j.Experiment, state, dur, stats)
	s.mu.Unlock()

	switch state {
	case StateDone:
		s.breaker.Record(j.Experiment, true)
	case StateFailed:
		s.breaker.Record(j.Experiment, false)
		s.metrics.failures.Add(1, j.Experiment, string(classifyFailure(err, errMsg)))
	}

	s.log.Info("job finished", "job", j.ID, "experiment", j.Experiment,
		"state", string(state), "duration", dur, "attempts", attempt, "err", errMsg)
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
		key, keyOK = resultKeyFor(j.Experiment, j.Params)
	}
	if !keyOK {
		return Execute(ctx, run, j.Params)
	}
	e, flight, leader := s.results.begin(key)
	if e != nil {
		s.metrics.cacheHits.Add(1, j.Experiment)
		return e.result, e.stats, nil
	}
	s.metrics.cacheMisses.Add(1, j.Experiment)
	deduped := false
	for !leader {
		if !deduped {
			deduped = true
			s.metrics.cacheDedup.Add(1, j.Experiment)
		}
		select {
		case <-flight.done:
			if flight.entry != nil {
				return flight.entry.result, flight.entry.stats, nil
			}
		case <-ctx.Done():
			return nil, cpu.Counters{}, ctx.Err()
		}
		// The leader failed or was cancelled: serve a result that has
		// landed since, or run for real (possibly as the next leader).
		if e, flight, leader = s.results.begin(key); e != nil {
			return e.result, e.stats, nil
		}
	}
	raw, stats, err := Execute(ctx, run, j.Params)
	var entry *resultEntry
	if err == nil && !s.cancelRequested(j) {
		entry = &resultEntry{result: raw, stats: stats}
	}
	s.results.finish(key, flight, entry)
	return raw, stats, err
}

// cancelRequested reads the job's cancellation flag under the lock.
func (s *Service) cancelRequested(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.CancelRequested
}

// scheduleRetryLocked parks a failed job as pending and arms the timer that
// re-enqueues it. Caller holds s.mu.
func (s *Service) scheduleRetryLocked(j *job, cause error) {
	j.State = StatePending
	j.Own.lastErr = cause.Error()
	j.Finished = time.Time{}
	delay := s.retry.Delay(j.Attempts, retrySeed(j.ID))
	s.journal.Append(JournalRecord{Op: OpRetry, Job: j.ID, Time: s.now(), Attempt: j.Attempts, Error: j.Own.lastErr})
	s.metrics.retried.Add(1, j.Experiment)
	id := j.ID
	s.retryTimers[id] = time.AfterFunc(delay, func() { s.requeue(id) })
	s.log.Warn("job retry scheduled", "job", id, "experiment", j.Experiment,
		"attempt", j.Attempts, "of", s.cfg.MaxAttempts, "delay", delay, "err", j.Own.lastErr)
}

// requeue moves a retry-parked job back into the queue when its backoff
// timer fires. The draining check under the lock makes the send safe:
// Shutdown flips draining before closing the queue, also under the lock.
func (s *Service) requeue(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.retryTimers, id)
	j := s.JobLocked(id)
	if j == nil || j.State != StatePending {
		return // cancelled (or otherwise finalized) while waiting
	}
	if s.draining {
		s.finalizeLocked(j, StateFailed, "shutdown before retry: "+j.Own.lastErr)
		return
	}
	select {
	case s.queue <- j:
	default:
		s.finalizeLocked(j, StateFailed, "queue full on retry: "+j.Own.lastErr)
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
