package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"pathfinder/internal/cpu"
)

// JournalRecord is one JSONL line of a write-ahead job journal: the
// standalone service's journal.jsonl and the cluster coordinator's
// coordinator.jsonl share it. Every job-state transition appends exactly one
// record before the transition is acknowledged, so a crash at any instant
// leaves a journal from which the full job table — and the set of jobs that
// must be re-queued — can be reconstructed.
type JournalRecord struct {
	Op   string    `json:"op"` // one of the Op* constants
	Job  string    `json:"job"`
	Time time.Time `json:"time"`

	// submit
	Experiment string  `json:"experiment,omitempty"`
	Params     *Params `json:"params,omitempty"`
	Batch      string  `json:"batch,omitempty"`
	TimeoutMS  int64   `json:"timeout_ms,omitempty"`

	// start | retry
	Attempt int `json:"attempt,omitempty"`

	// assign | requeue
	Worker string `json:"worker,omitempty"`
	Reason string `json:"reason,omitempty"`

	// finish
	State  State           `json:"state,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Stats  cpu.Counters    `json:"stats,omitzero"`
}

// Journal record operations. The service writes submit, start, retry and
// finish; the coordinator writes submit, assign, requeue and finish.
const (
	OpSubmit  = "submit"
	OpStart   = "start"
	OpRetry   = "retry"
	OpAssign  = "assign"
	OpRequeue = "requeue"
	OpFinish  = "finish"
)

// journalCompactBytes is the startup compaction trigger: a journal at least
// this large when opened is rewritten to its minimal replay-equivalent form
// before anything new is appended.
var journalCompactBytes int64 = 4 << 20

// Journal is the append-only JSONL writer. Appends are serialized by its own
// mutex; owners additionally append while holding their job-table lock, so
// journal order always matches state-transition order. A nil *Journal — no
// data directory — drops every record.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	log *slog.Logger
}

// OpenJournal replays the journal at path, creating its directory, then
// compacts it if it has reached the size trigger and opens it for appending.
// It returns the replayed jobs in submission order and the highest sequence
// number any job or batch ID used. Compaction failure is logged, not fatal:
// the oversized journal still replays, and the next start tries again.
func OpenJournal(path string, log *slog.Logger) (*Journal, []*ReplayedJob, uint64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("service: creating data dir: %w", err)
	}
	jobs, maxSeq, err := replayJournal(path, log)
	if err != nil {
		return nil, nil, 0, err
	}
	if fi, serr := os.Stat(path); serr == nil && fi.Size() >= journalCompactBytes {
		if cerr := compactJournal(path, jobs); cerr != nil {
			log.Warn("journal compaction failed", "path", path, "err", cerr)
		} else if after, aerr := os.Stat(path); aerr == nil {
			log.Info("journal compacted", "path", path,
				"before_bytes", fi.Size(), "after_bytes", after.Size(), "jobs", len(jobs))
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("service: opening journal: %w", err)
	}
	return &Journal{f: f, log: log}, jobs, maxSeq, nil
}

// Append writes one record, logging rather than failing on error: a full
// disk must not take the in-memory job table down with it.
func (j *Journal) Append(rec JournalRecord) {
	if j == nil {
		return
	}
	raw, err := json.Marshal(rec)
	if err == nil {
		j.mu.Lock()
		_, err = j.f.Write(append(raw, '\n'))
		j.mu.Unlock()
	}
	if err != nil {
		j.log.Warn("journal append failed", "op", rec.Op, "job", rec.Job, "err", err)
	}
}

// Close closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// compactJournal rewrites the journal at path to the minimal record set
// that replays to the same job table: per job, one submit, the surviving
// start count, and the finish record if the job is terminal. Retry,
// assignment and requeue history, corrupt lines and stray records vanish.
// The rewrite goes through a temp file in the same directory and an atomic
// rename, so a crash mid-compaction leaves either the old journal or the new
// one — never a torn mixture.
//
// The input is the already-replayed state, which is exactly the fixpoint
// property the replay-equality test pins down: replay(compact(J)) ==
// replay(J) for every journal J, because compaction serializes what replay
// reconstructed.
func compactJournal(path string, jobs []*ReplayedJob) (err error) {
	tmp := path + ".compact"
	defer func() {
		if err != nil {
			os.Remove(tmp)
			err = fmt.Errorf("service: compacting journal: %w", err)
		}
	}()
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w) // Encode writes Marshal's bytes plus a newline
	for _, r := range jobs {
		p := r.Params
		recs := []JournalRecord{{
			Op: OpSubmit, Job: r.ID, Time: r.Submitted,
			Experiment: r.Experiment, Params: &p, Batch: r.Batch,
			TimeoutMS: r.Timeout.Milliseconds(),
		}}
		// Start records survive as a count: the attempt budget replays from
		// them, and the last one carries the started timestamp.
		for i := 0; i < r.Starts; i++ {
			recs = append(recs, JournalRecord{Op: OpStart, Job: r.ID, Time: r.LastStart, Attempt: i + 1})
		}
		if r.Finished {
			recs = append(recs, JournalRecord{
				Op: OpFinish, Job: r.ID, Time: r.FinishedAt,
				State: r.State, Error: r.Error, Result: r.Result, Stats: r.Stats,
			})
		}
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReplayedJob is the reconstruction of one job from its journal records.
type ReplayedJob struct {
	ID         string
	Experiment string
	Params     Params
	Batch      string
	Timeout    time.Duration
	Submitted  time.Time

	Starts    int // attempts consumed before the crash
	LastStart time.Time

	Finished   bool
	State      State
	Error      string
	Result     json.RawMessage
	Stats      cpu.Counters
	FinishedAt time.Time
}

// seqOf is the sequence number in the digits after an ID's last '-', which
// serves job-/batch- and the coordinator's cjob-/cbatch- IDs alike; any
// other ID yields 0.
func seqOf(id string) uint64 {
	n, _ := strconv.ParseUint(id[strings.LastIndexByte(id, '-')+1:], 10, 64)
	return n
}

// replayJournal reads the journal at path and reconstructs every job it
// describes, in submission order, together with the highest sequence number
// any job or batch ID used. A missing file is an empty journal. Corrupt or
// truncated lines — the tail a crash mid-append leaves behind — are skipped
// with a logged warning, never an error: the journal is the recovery path,
// and refusing to start over one torn record would turn a crash into an
// outage.
func replayJournal(path string, log *slog.Logger) (jobs []*ReplayedJob, maxSeq uint64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("service: reading journal: %w", err)
	}
	defer f.Close()

	byID := make(map[string]*ReplayedJob)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec JournalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			log.Warn("journal: skipping corrupt record", "line", line, "err", err)
			continue
		}
		r := byID[rec.Job]
		switch rec.Op {
		case OpSubmit:
			if rec.Job == "" || rec.Experiment == "" {
				log.Warn("journal: skipping submit record without job or experiment", "line", line)
				continue
			}
			if r != nil {
				log.Warn("journal: skipping duplicate submit", "line", line, "job", rec.Job)
				continue
			}
			r = &ReplayedJob{
				ID:         rec.Job,
				Experiment: rec.Experiment,
				Batch:      rec.Batch,
				Timeout:    time.Duration(rec.TimeoutMS) * time.Millisecond,
				Submitted:  rec.Time,
			}
			if rec.Params != nil {
				r.Params = *rec.Params
			}
			byID[rec.Job] = r
			jobs = append(jobs, r)
			maxSeq = max(maxSeq, seqOf(rec.Job), seqOf(rec.Batch))
		case OpStart:
			if r == nil || r.Finished {
				log.Warn("journal: skipping stray start record", "line", line, "job", rec.Job)
				continue
			}
			r.Starts++
			r.LastStart = rec.Time
		case OpRetry, OpAssign, OpRequeue:
			// Informational: the attempt count is derived from start records,
			// and a crash invalidates every coordinator lease, so these need no
			// replay action beyond existing.
			if r == nil {
				log.Warn("journal: skipping stray "+rec.Op+" record", "line", line, "job", rec.Job)
			}
		case OpFinish:
			if r == nil || r.Finished {
				log.Warn("journal: skipping stray finish record", "line", line, "job", rec.Job)
				continue
			}
			if !rec.State.Terminal() {
				log.Warn("journal: skipping finish record with non-terminal state", "line", line, "job", rec.Job, "state", string(rec.State))
				continue
			}
			r.Finished = true
			r.State = rec.State
			r.Error = rec.Error
			r.Result = rec.Result
			r.Stats = rec.Stats
			r.FinishedAt = rec.Time
		default:
			log.Warn("journal: skipping record with unknown op", "line", line, "op", rec.Op)
		}
	}
	if err := sc.Err(); err != nil {
		// An oversized or unreadable tail: everything parsed so far is still
		// a valid prefix of the history.
		log.Warn("journal: stopped before end of file", "line", line, "err", err)
	}
	return jobs, maxSeq, nil
}
