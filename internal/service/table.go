package service

import (
	"encoding/json"
	"fmt"
	"iter"
	"log/slog"
	"slices"
	"sync"
	"time"

	"pathfinder/internal/cpu"
)

// TableConfig wires a Table into its owner. The hooks are where the owners
// differ: the Service admits into its bounded queue behind per-experiment
// breakers, the Coordinator into its pending list.
type TableConfig[X any] struct {
	Lock           *sync.Mutex // the owner's mutex; the table has no lock of its own
	JobPrefix      string      // "job-", or the coordinator's "cjob-"
	BatchPrefix    string      // "batch-", or the coordinator's "cbatch-"
	Registry       *Registry
	Journal        *Journal // nil drops the submit and finish records
	Logger         *slog.Logger
	Clock          func() time.Time
	DefaultTimeout time.Duration // for a submission that names none
	QueueBound     int           // a larger sweep is refused whole

	// Gate screens a validated submission before Lock is taken; nil admits
	// every one.
	Gate func(experiment string) error
	// Admit runs under Lock before the table stores a new job: it queues
	// the job or refuses it (ErrDraining, ErrQueueFull), and must not
	// block. A refused job consumes no ID and leaves no record.
	Admit func(j *Job[X]) error
	// Submitted runs after Lock is released, once per admitted job.
	Submitted func(experiment string)
}

// Table is the job table of a Service or a Coordinator: records in
// submission order, job and batch IDs under the owner's prefix, submission
// and sweep expansion, the journal's submit and finish records, restore
// from a replayed journal, and the views and counts clients see. NewBatch,
// Get, List, StateCounts, Submit and SubmitSweep take the owner's mutex
// themselves; the methods named *Locked expect the caller to hold it.
type Table[X any] struct {
	opt   TableConfig[X]
	byID  map[string]*Job[X]
	order []*Job[X]
	seq   uint64 // last job or batch sequence number handed out
}

// NewTable builds an empty table.
func NewTable[X any](opt TableConfig[X]) *Table[X] {
	return &Table[X]{opt: opt, byID: make(map[string]*Job[X])}
}

// Registry is the experiment registry submissions validate against.
func (t *Table[X]) Registry() *Registry { return t.opt.Registry }

// Restore installs the jobs OpenJournal replayed, in submission order, and
// resumes ID allocation past maxSeq. Finished jobs come back terminal with
// their results intact. Every other job comes back pending, with its
// journaled start count as its attempts, and is handed to requeue with its
// replay record. Call Restore once, before the owner starts.
func (t *Table[X]) Restore(replayed []*ReplayedJob, maxSeq uint64, requeue func(*Job[X], *ReplayedJob)) {
	t.seq = maxSeq
	for _, r := range replayed {
		j := &Job[X]{
			ID:         r.ID,
			Experiment: r.Experiment,
			Params:     r.Params,
			Batch:      r.Batch,
			Timeout:    r.Timeout,
			State:      StatePending,
			Submitted:  r.Submitted,
			Attempts:   r.Starts,
		}
		if j.Timeout <= 0 {
			j.Timeout = t.opt.DefaultTimeout
		}
		if r.Finished {
			j.State, j.Error, j.Result, j.Stats = r.State, r.Error, r.Result, r.Stats
			j.Started, j.Finished = r.LastStart, r.FinishedAt
			if j.Started.IsZero() {
				j.Started = j.Finished
			}
		}
		t.byID[j.ID] = j
		t.order = append(t.order, j)
		if !r.Finished {
			requeue(j, r)
		}
	}
}

// Submit validates, records and queues one job. timeout <= 0 selects the
// default. The returned view is the job's pending snapshot.
func (t *Table[X]) Submit(experiment string, p Params, batch string, timeout time.Duration) (JobView, error) {
	resolved, err := t.opt.Registry.Resolve(experiment, p)
	if err != nil {
		return JobView{}, err
	}
	if timeout <= 0 {
		timeout = t.opt.DefaultTimeout
	}
	if t.opt.Gate != nil {
		if err := t.opt.Gate(experiment); err != nil {
			return JobView{}, err
		}
	}

	t.opt.Lock.Lock()
	j := &Job[X]{
		ID:         fmt.Sprintf("%s%06d", t.opt.JobPrefix, t.seq+1),
		Experiment: experiment,
		Params:     resolved,
		Batch:      batch,
		Timeout:    timeout,
		State:      StatePending,
		Submitted:  t.opt.Clock(),
	}
	if err := t.opt.Admit(j); err != nil {
		t.opt.Lock.Unlock()
		return JobView{}, err
	}
	t.seq++
	t.byID[j.ID] = j
	t.order = append(t.order, j)
	t.opt.Journal.Append(JournalRecord{
		Op: OpSubmit, Job: j.ID, Time: j.Submitted,
		Experiment: experiment, Params: &resolved, Batch: batch,
		TimeoutMS: timeout.Milliseconds(),
	})
	v := j.View()
	t.opt.Lock.Unlock()

	t.opt.Submitted(experiment)
	t.opt.Logger.Info("job submitted", "job", v.ID, "experiment", experiment, "batch", batch)
	return v, nil
}

// SubmitSweep expands a parameter sweep — the cross product of the given
// microarchitectures and seeds over a base Params — into one job per point,
// all tagged with the same batch ID. Empty sweep axes default to the base
// value, so a sweep over only seeds or only archs works naturally.
func (t *Table[X]) SubmitSweep(experiment string, base Params, archs []string, seeds []int64, timeout time.Duration) (string, []JobView, error) {
	if len(archs) == 0 {
		archs = []string{base.Arch}
	}
	if len(seeds) == 0 {
		seeds = []int64{base.Seed}
	}
	// Validate every axis value up front, so a bad value admits no point.
	for _, a := range archs {
		if _, err := ArchConfig(a); err != nil {
			return "", nil, err
		}
	}
	if _, err := t.opt.Registry.Resolve(experiment, base); err != nil {
		return "", nil, err
	}
	if n := len(archs) * len(seeds); n > t.opt.QueueBound {
		return "", nil, fmt.Errorf("%w: sweep of %d jobs exceeds queue depth %d", ErrQueueFull, n, t.opt.QueueBound)
	}

	batch := t.NewBatch()
	views := make([]JobView, 0, len(archs)*len(seeds))
	for _, a := range archs {
		for _, seed := range seeds {
			p := base
			p.Arch = a
			p.Seed = seed
			v, err := t.Submit(experiment, p, batch, timeout)
			if err != nil {
				return batch, views, err
			}
			views = append(views, v)
		}
	}
	t.opt.Logger.Info("batch submitted", "batch", batch, "experiment", experiment, "jobs", len(views))
	return batch, views, nil
}

// NewBatch allocates a batch ID from the job sequence.
func (t *Table[X]) NewBatch() string {
	t.opt.Lock.Lock()
	defer t.opt.Lock.Unlock()
	t.seq++
	return fmt.Sprintf("%s%06d", t.opt.BatchPrefix, t.seq)
}

// Get returns a job snapshot.
func (t *Table[X]) Get(id string) (JobView, error) {
	t.opt.Lock.Lock()
	defer t.opt.Lock.Unlock()
	j, ok := t.byID[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return j.View(), nil
}

// ListFilter narrows List output; zero fields match everything.
type ListFilter struct {
	State      State
	Batch      string
	Experiment string
}

// List returns snapshots of matching jobs in submission order.
func (t *Table[X]) List(f ListFilter) []JobView {
	t.opt.Lock.Lock()
	defer t.opt.Lock.Unlock()
	out := make([]JobView, 0, len(t.order))
	for _, j := range t.order {
		if (f.State == "" || j.State == f.State) &&
			(f.Batch == "" || j.Batch == f.Batch) &&
			(f.Experiment == "" || j.Experiment == f.Experiment) {
			out = append(out, j.View())
		}
	}
	return out
}

// StateCounts tallies jobs by state. The five counts always sum to the
// total ever submitted, which is what /metrics exposes and what the batch
// status endpoint reports.
func (t *Table[X]) StateCounts() map[State]int {
	t.opt.Lock.Lock()
	defer t.opt.Lock.Unlock()
	return t.CountsLocked()
}

// CountsLocked is StateCounts for a caller already holding the owner's
// mutex.
func (t *Table[X]) CountsLocked() map[State]int {
	out := make(map[State]int, 5)
	for _, st := range States() {
		out[st] = 0
	}
	for _, j := range t.order {
		out[j.State]++
	}
	return out
}

// JobLocked returns the job with the given ID, or nil.
func (t *Table[X]) JobLocked(id string) *Job[X] { return t.byID[id] }

// JobsLocked yields every job in submission order.
func (t *Table[X]) JobsLocked() iter.Seq[*Job[X]] { return slices.Values(t.order) }

// FinishLocked moves j to the terminal state st with its outcome, stamps
// the finish time (and the start time of a job that never started), and
// journals the finish record.
func (t *Table[X]) FinishLocked(j *Job[X], st State, errMsg string, result json.RawMessage, stats cpu.Counters) {
	j.State, j.Error, j.Result, j.Stats = st, errMsg, result, stats
	j.Finished = t.opt.Clock()
	if j.Started.IsZero() {
		j.Started = j.Finished
	}
	t.opt.Journal.Append(JournalRecord{
		Op: OpFinish, Job: j.ID, Time: j.Finished,
		State: st, Error: errMsg, Result: result, Stats: stats,
	})
}
