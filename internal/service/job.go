// Package service turns the harness experiment drivers into a job-oriented
// orchestration layer: a typed registry of every experiment in the DESIGN.md
// index, a bounded worker pool draining an in-memory queue, an HTTP/JSON
// API, and a /metrics observability surface aggregating simulator counters.
// cmd/pathfinderd is the daemon wrapping this package.
package service

import (
	"encoding/json"
	"time"

	"pathfinder/internal/cpu"
)

// State is a job's lifecycle position. Transitions:
//
//	pending → running → done | failed | cancelled
//	pending → cancelled                 (cancelled before a worker picked it up)
type State string

// Job states.
const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// States lists every state in lifecycle order; /metrics emits one series
// per state so scrapes always expose all five counts, including zeros.
func States() []State {
	return []State{StatePending, StateRunning, StateDone, StateFailed, StateCancelled}
}

// job is the service-internal mutable record. All fields past the
// immutable header are guarded by Service.mu.
type job struct {
	id         string
	experiment string
	params     Params
	batch      string
	timeout    time.Duration

	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    json.RawMessage
	errMsg    string
	stats     cpu.Counters
	attempts  int    // worker pickups so far (including the current one)
	lastErr   string // error that parked the job on a retry timer

	// cancel aborts the in-flight run; non-nil only while running.
	cancel func()
	// cancelRequested pins the terminal state to cancelled even if the
	// runner manages to finish before observing ctx.Done().
	cancelRequested bool
}

// JobView is the immutable JSON projection of a job, safe to hand out
// after the service lock is released.
type JobView struct {
	ID         string          `json:"id"`
	Experiment string          `json:"experiment"`
	Params     Params          `json:"params"`
	Batch      string          `json:"batch,omitempty"`
	State      State           `json:"state"`
	Submitted  time.Time       `json:"submitted_at"`
	Started    *time.Time      `json:"started_at,omitempty"`
	Finished   *time.Time      `json:"finished_at,omitempty"`
	DurationMS int64           `json:"duration_ms,omitempty"`
	Attempts   int             `json:"attempts,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	Error      string          `json:"error,omitempty"`
	SimStats   *cpu.Counters   `json:"sim_stats,omitempty"`
	Worker     string          `json:"worker,omitempty"` // cluster only: the worker holding or last holding the lease
}

// view snapshots the job; the caller must hold Service.mu.
func (j *job) view() JobView {
	v := JobView{
		ID:         j.id,
		Experiment: j.experiment,
		Params:     j.params,
		Batch:      j.batch,
		State:      j.state,
		Submitted:  j.submitted,
		Attempts:   j.attempts,
		Result:     j.result,
		Error:      j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
		v.DurationMS = j.finished.Sub(j.started).Milliseconds()
	}
	if j.stats != (cpu.Counters{}) {
		s := j.stats
		v.SimStats = &s
	}
	return v
}

// Terminal reports whether the state admits no further transitions.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}
