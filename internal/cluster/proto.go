// Package cluster distributes pathfinderd across nodes: a coordinator
// shards sweep batches over an HTTP/JSON control plane onto worker daemons,
// each of which wraps a full service.Service. Three mechanisms carry the
// design:
//
//   - Content-addressed snapshot exchange: workers advertise the warm-state
//     snapshots they hold (harness warm-cache entries, addressed by the
//     snapshot's own FNV-1a content hash) in every heartbeat, and a worker
//     that misses warm state fetches the identical snapshot from the peer
//     that trained it instead of re-training.
//   - Warm-affinity scheduling: the coordinator routes a job toward workers
//     that recently completed work in the same (experiment, arch, noise)
//     group — the workers whose warm caches the job will hit — falling back
//     to the least-loaded live worker, with bounded per-worker queues and
//     429 backpressure feeding a coordinator-side requeue.
//   - Lease-based ownership: every assignment carries a lease renewed by
//     worker heartbeats; a dead or wedged worker's leases expire and its
//     jobs are reassigned. Because every experiment driver is a
//     deterministic function of its resolved parameters, duplicate
//     executions from reassignment races produce identical results and the
//     first terminal result simply wins.
//
// The determinism contract is end-to-end: a batch report served by the
// coordinator is byte-identical to the standalone service's report for the
// same sweep, at any worker count, across worker crashes.
package cluster

import (
	"encoding/json"

	"pathfinder/internal/cpu"
	"pathfinder/internal/service"
)

// RunRequest is the coordinator→worker job assignment (POST
// /v1/cluster/run). Params arrive fully resolved — the coordinator owns
// validation and default-filling, so every worker runs exactly the same
// resolved work regardless of local registry defaults.
type RunRequest struct {
	ID         string         `json:"id"` // cluster job ID
	Experiment string         `json:"experiment"`
	Params     service.Params `json:"params"`
	TimeoutMS  int64          `json:"timeout_ms,omitempty"`
}

// RunResponse acknowledges an assignment. A worker that already holds the
// job replies Accepted without resubmitting, making assignment idempotent
// under coordinator retries. Saturated marks a rejection caused by a full
// local queue — backpressure the coordinator requeues without feeding the
// worker's breaker, as opposed to a malformed or unrunnable assignment.
type RunResponse struct {
	ID        string `json:"id"`
	Accepted  bool   `json:"accepted"`
	Saturated bool   `json:"saturated,omitempty"`
	Error     string `json:"error,omitempty"`
}

// RunBatch carries every assignment one dispatch tick routed at one worker
// (POST /v1/cluster/runs): one request per destination per tick instead of
// one per job, so dispatch latency stays flat as sweeps and clusters grow.
type RunBatch struct {
	Jobs []RunRequest `json:"jobs"`
}

// RunBatchReply answers a RunBatch per job, in any order (jobs are matched
// back by ID). The batch itself always lands with 200 — per-job outcomes,
// including backpressure, live in the results.
type RunBatchReply struct {
	Results []RunResponse `json:"results"`
}

// Heartbeat is the worker→coordinator liveness and progress report (POST
// /v1/cluster/heartbeat). Listing a job ID renews its lease; the warm-key
// advertisements feed the coordinator's snapshot-location index.
type Heartbeat struct {
	Worker   string      `json:"worker"`
	Addr     string      `json:"addr"` // worker base URL, for assignments and peer fetches
	Queue    int         `json:"queue"`
	Capacity int         `json:"capacity"` // worker pool size
	Jobs     []JobStatus `json:"jobs,omitempty"`
	WarmKeys []WarmAd    `json:"warm_keys,omitempty"`
}

// JobStatus is one in-flight job's state as the worker sees it.
type JobStatus struct {
	ID    string        `json:"id"` // cluster job ID
	State service.State `json:"state"`
}

// WarmAd advertises one exchangeable warm-cache entry: the harness warm key
// (canonical string spelling) and the content hash of the snapshot behind
// it, which doubles as the snapshot's address on the serving worker
// (GET {addr}/snapshots/{hash}).
type WarmAd struct {
	Key  string `json:"key"`
	Hash string `json:"hash"` // %016x of cpu.Snapshot.Hash()
}

// HeartbeatReply carries coordinator→worker instructions piggybacked on the
// heartbeat: cluster job IDs the worker should cancel (client-cancelled, or
// reassigned elsewhere after a lease loss).
type HeartbeatReply struct {
	Cancel []string `json:"cancel,omitempty"`
}

// ResultsPush delivers terminal jobs worker→coordinator (POST
// /v1/cluster/results). The worker keeps resending a result until the
// coordinator acks its ID, so completions survive coordinator restarts.
type ResultsPush struct {
	Worker  string      `json:"worker"`
	Results []JobResult `json:"results"`
}

// JobResult is one terminal job outcome.
type JobResult struct {
	ID       string          `json:"id"` // cluster job ID
	State    service.State   `json:"state"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
	Stats    *cpu.Counters   `json:"stats,omitempty"`
	Attempts int             `json:"attempts,omitempty"` // worker-local attempts
}

// ResultsReply acks processed results; the worker drops its local mapping
// for every acked ID.
type ResultsReply struct {
	Acked []string `json:"acked"`
}

// SnapshotLocation is one live worker holding the snapshot for a warm key,
// and the content hash to fetch it under.
type SnapshotLocation struct {
	Worker string `json:"worker"`
	Addr   string `json:"addr"`
	Hash   string `json:"hash"`
}

// SnapshotLocations answers a warm-key lookup (GET /v1/cluster/snapshots):
// up to two healthy holders ranked freshest-heartbeat-first, feeding the
// worker's hedged fetch — leg one races the first holder, leg two the
// second (or the first again when only one exists).
type SnapshotLocations struct {
	Holders []SnapshotLocation `json:"holders"`
}

// PeerReport flags a sick peer worker→coordinator (POST
// /v1/cluster/report-peer): the reporter observed a failure class (e.g. a
// corrupt snapshot body) talking to the peer directly, which the
// coordinator folds into that peer's breaker and health metrics.
type PeerReport struct {
	From  string `json:"from"`
	Peer  string `json:"peer"`
	Class string `json:"class"`
}

// WorkerStatus is one worker's row in GET /cluster/status.
type WorkerStatus struct {
	Name        string   `json:"name"`
	Addr        string   `json:"addr"`
	LastSeenMS  int64    `json:"last_seen_ms"` // since last heartbeat
	Inflight    int      `json:"inflight"`     // leases held
	Queue       int      `json:"queue"`
	Capacity    int      `json:"capacity"`
	Saturated   bool     `json:"saturated,omitempty"`
	WarmKeys    []string `json:"warm_keys,omitempty"`
	Breaker     int      `json:"breaker"` // 0 closed, 1 half-open, 2 open
	Quarantined bool     `json:"quarantined,omitempty"`
}

// StatusView is the GET /cluster/status body.
type StatusView struct {
	Workers  []WorkerStatus        `json:"workers"`
	Jobs     map[service.State]int `json:"jobs"`
	Pending  int                   `json:"pending"`  // unassigned queue length
	Degraded bool                  `json:"degraded"` // coordinator running jobs in-process
}
