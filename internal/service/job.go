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

// Job is one record of a Table: the fields the standalone Service and the
// cluster Coordinator both keep, plus Own, the owner's private state. Past
// the immutable header, every field is guarded by the owner's mutex.
type Job[X any] struct {
	ID         string
	Experiment string
	Params     Params // resolved
	Batch      string
	Timeout    time.Duration

	State     State
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Result    json.RawMessage
	Error     string
	Stats     cpu.Counters
	Attempts  int    // service: worker pickups so far; coordinator: what the finishing worker reported
	Worker    string // cluster only: the worker holding or last holding the lease

	// CancelRequested pins the terminal state to cancelled even if the run
	// manages to finish before it observes the cancellation.
	CancelRequested bool

	Own X
}

// JobView is the immutable JSON projection of a job, safe to hand out
// after the owner's lock is released.
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

// View snapshots the job; the caller holds the owner's mutex.
func (j *Job[X]) View() JobView {
	v := JobView{
		ID:         j.ID,
		Experiment: j.Experiment,
		Params:     j.Params,
		Batch:      j.Batch,
		State:      j.State,
		Submitted:  j.Submitted,
		Attempts:   j.Attempts,
		Result:     j.Result,
		Error:      j.Error,
		Worker:     j.Worker,
	}
	if !j.Started.IsZero() {
		t := j.Started
		v.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		v.Finished = &t
		v.DurationMS = j.Finished.Sub(j.Started).Milliseconds()
	}
	if j.Stats != (cpu.Counters{}) {
		s := j.Stats
		v.SimStats = &s
	}
	return v
}

// Terminal reports whether the state admits no further transitions.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}
