package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"pathfinder/internal/cpu"
	"pathfinder/internal/harness"
	"pathfinder/internal/metrics"
	"pathfinder/internal/service"
	"pathfinder/internal/snapstore"
)

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// Name identifies the worker to the coordinator; it must be unique per
	// cluster and stable across heartbeats.
	Name string
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// SelfURL is this worker's advertised base URL — the address the
	// coordinator assigns jobs to and peers fetch snapshots from.
	SelfURL string
	// Heartbeat is the heartbeat/result-push interval. <=0 means 1s.
	Heartbeat time.Duration
	// SnapStore optionally backs the warm tier with the persistent on-disk
	// snapshot store: disk-resident keys are advertised to the coordinator
	// even before this process has warmed them, and peer snapshot downloads
	// are served straight from disk when the in-memory cache has evicted
	// the entry.
	SnapStore *snapstore.Store

	// Timeouts are the per-RPC-class context deadlines for worker→
	// coordinator and worker→peer calls, replacing a flat client timeout.
	// Zero fields take the documented defaults.
	Timeouts RPCTimeouts

	// RetryPerSecond and RetryBurst tune the shared retry-token budget:
	// every retried RPC (heartbeat, result push, fetch legs) spends one
	// token, so a partitioned worker degrades to single attempts instead of
	// amplifying a sick network. RetryPerSecond <=0 means 2; RetryBurst
	// <=0 means 2×RetryPerSecond.
	RetryPerSecond float64
	RetryBurst     float64

	// HedgeDelay is how long the warm-snapshot fetch waits on the first
	// holder before racing a second leg (the second-ranked holder, or the
	// same holder again when only one exists). <=0 means 50ms.
	HedgeDelay time.Duration

	Logger     *slog.Logger // nil discards
	HTTPClient *http.Client // nil uses a pooled keep-alive client (deadlines come from Timeouts)
}

// blobPool recycles snapshot encode buffers on the serve path, so the
// ~MiB-scale encodings do not allocate per request.
var blobPool = sync.Pool{New: func() any { b := make([]byte, 0, 1<<20); return &b }}

// workerMetrics are the worker-side cluster counters, registered on the
// wrapped service's registry so one scrape of its /metrics covers both
// layers.
type workerMetrics struct {
	assignments, rejected, resultsPushed, snapshotServes, fetchCorrupt, hedge *metrics.Counter
}

func newWorkerMetrics(reg *metrics.Registry, budget *retryBudget) workerMetrics {
	m := workerMetrics{
		assignments:    reg.Counter("pathfinderd_worker_assignments_total", "cluster assignments accepted"),
		rejected:       reg.Counter("pathfinderd_worker_rejected_total", "cluster assignments bounced with 429 backpressure"),
		resultsPushed:  reg.Counter("pathfinderd_worker_results_pushed_total", "terminal results acked by the coordinator"),
		snapshotServes: reg.Counter("pathfinderd_worker_snapshot_serves_total", "warm snapshots served to peers"),
	}
	reg.CounterFunc("pathfinderd_worker_warm_cache_total", "process warm-cache lookups, by outcome", []string{"outcome"}, func(emit metrics.Emit) {
		hits, misses := harness.WarmCacheStats()
		emit(hits, "hit")
		emit(misses, "miss")
	})
	reg.CounterFunc("pathfinderd_worker_warm_fetch_total", "peer warm-state fetches, by outcome", []string{"outcome"}, func(emit metrics.Emit) {
		hits, misses := harness.WarmFetchStats()
		emit(hits, "hit")
		emit(misses, "miss")
	})
	m.fetchCorrupt = reg.Counter("pathfinderd_worker_warm_fetch_corrupt_total", "peer snapshots rejected by wire/hash verification")
	m.hedge = reg.FixedCounter("pathfinderd_worker_hedge_total", "hedged warm-fetch outcomes: win = non-primary leg delivered", "outcome", "win", "loss")
	reg.CounterFunc("pathfinderd_worker_retry_budget_total", "retry-budget tokens, by outcome", []string{"outcome"}, func(emit metrics.Emit) {
		spent, denied := budget.stats()
		emit(spent, "spent")
		emit(denied, "denied")
	})
	return m
}

// Worker wraps a full service.Service as one cluster execution node: it
// accepts assignments over HTTP, heartbeats progress and warm-key
// advertisements to the coordinator, pushes terminal results until acked,
// serves its warm snapshots to peers by content hash, and installs the
// harness warm-fetch hook that pulls missing warm state from peers.
type Worker struct {
	cfg    WorkerConfig
	svc    *service.Service
	log    *slog.Logger
	client *http.Client
	m      workerMetrics
	budget *retryBudget

	mu    sync.Mutex
	local map[string]string // cluster job ID → local job ID

	retrySeq atomic.Uint64 // deterministic jitter stream for retry delays

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewWorker wraps svc. The worker does not own svc's lifecycle: callers
// shut the service down after stopping the worker.
func NewWorker(cfg WorkerConfig, svc *service.Service) (*Worker, error) {
	if cfg.Name == "" || cfg.Coordinator == "" || cfg.SelfURL == "" {
		return nil, fmt.Errorf("cluster: worker needs Name, Coordinator and SelfURL")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = defaultHTTPClient()
	}
	cfg.Timeouts = cfg.Timeouts.withDefaults()
	if cfg.RetryPerSecond <= 0 {
		cfg.RetryPerSecond = 2
	}
	if cfg.HedgeDelay <= 0 {
		cfg.HedgeDelay = 50 * time.Millisecond
	}
	budget := newRetryBudget(cfg.RetryPerSecond, cfg.RetryBurst, nil)
	return &Worker{
		cfg:    cfg,
		svc:    svc,
		log:    cfg.Logger,
		client: cfg.HTTPClient,
		m:      newWorkerMetrics(svc.Metrics(), budget),
		budget: budget,
		local:  make(map[string]string),
		stop:   make(chan struct{}),
	}, nil
}

// Start launches the heartbeat loop and installs the process-global warm
// fetch hook. (The hook is process-wide: with several in-process workers —
// a test-only arrangement — the last Start wins, which is harmless because
// every worker's hook resolves through the same coordinator.)
func (w *Worker) Start() {
	harness.SetWarmFetch(w.fetchWarm)
	w.wg.Add(1)
	go w.loop()
	w.log.Info("cluster worker started", "name", w.cfg.Name, "coordinator", w.cfg.Coordinator)
}

// Stop halts the heartbeat loop after a final result push, and removes the
// warm fetch hook. It does not shut down the wrapped service. Idempotent.
func (w *Worker) Stop() {
	w.stopOnce.Do(func() {
		close(w.stop)
		w.wg.Wait()
		harness.SetWarmFetch(nil)
	})
}

func (w *Worker) loop() {
	defer w.wg.Done()
	t := time.NewTicker(w.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			w.tick() // final push so finished work isn't stranded until resend
			return
		case <-t.C:
			w.tick()
		}
	}
}

// tick pushes terminal results (resending until acked), then heartbeats.
func (w *Worker) tick() {
	w.mu.Lock()
	pairs := make(map[string]string, len(w.local))
	for cid, lid := range w.local {
		pairs[cid] = lid
	}
	w.mu.Unlock()

	var results []JobResult
	var live []JobStatus
	for cid, lid := range pairs {
		v, err := w.svc.Get(lid)
		if err != nil {
			results = append(results, JobResult{ID: cid, State: service.StateFailed,
				Error: fmt.Sprintf("local job %s vanished: %v", lid, err)})
			continue
		}
		if v.State.Terminal() {
			results = append(results, JobResult{
				ID: cid, State: v.State, Result: v.Result, Error: v.Error,
				Stats: v.SimStats, Attempts: v.Attempts,
			})
		} else {
			live = append(live, JobStatus{ID: cid, State: v.State})
		}
	}

	if len(results) > 0 {
		var reply ResultsReply
		if err := w.post("/v1/cluster/results", w.cfg.Timeouts.Heartbeat, ResultsPush{Worker: w.cfg.Name, Results: results}, &reply); err != nil {
			w.log.Warn("result push failed, will resend", "err", err)
		} else {
			w.mu.Lock()
			for _, id := range reply.Acked {
				delete(w.local, id)
			}
			w.mu.Unlock()
			w.m.resultsPushed.Add(uint64(len(reply.Acked)))
		}
	}

	warmAds := w.advertisements()
	hb := Heartbeat{
		Worker:   w.cfg.Name,
		Addr:     w.cfg.SelfURL,
		Queue:    w.svc.QueueDepth(),
		Capacity: w.svc.Workers(),
		Jobs:     live,
		WarmKeys: warmAds,
	}
	var reply HeartbeatReply
	if err := w.post("/v1/cluster/heartbeat", w.cfg.Timeouts.Heartbeat, hb, &reply); err != nil {
		w.log.Warn("heartbeat failed", "err", err)
		return
	}
	for _, cid := range reply.Cancel {
		w.mu.Lock()
		lid, ok := w.local[cid]
		w.mu.Unlock()
		if !ok {
			continue
		}
		if _, err := w.svc.Cancel(lid); err != nil && !errors.Is(err, service.ErrFinished) {
			w.log.Warn("relayed cancel failed", "cluster_job", cid, "local_job", lid, "err", err)
		}
	}
}

// advertisements merges the in-memory warm cache with the persistent
// snapshot store into one warm-key advertisement list. Memory wins on a
// duplicate key (same content either way — store entries are the spilled
// snapshots), and disk-only keys let the coordinator route work at this
// worker across restarts, before anything is re-warmed.
func (w *Worker) advertisements() []WarmAd {
	ads := harness.WarmSnapshots()
	warmAds := make([]WarmAd, 0, len(ads))
	seen := make(map[string]bool, len(ads))
	for _, s := range ads {
		warmAds = append(warmAds, WarmAd{Key: s.Key.String(), Hash: fmt.Sprintf("%016x", s.Snap.Hash())})
		seen[s.Key.String()] = true
	}
	if w.cfg.SnapStore != nil {
		for _, e := range w.cfg.SnapStore.Entries() {
			if seen[e.Key] {
				continue
			}
			warmAds = append(warmAds, WarmAd{Key: e.Key, Hash: fmt.Sprintf("%016x", e.SnapHash)})
		}
	}
	return warmAds
}

// post sends one JSON request to the coordinator under the given RPC-class
// deadline, retrying once when the shared retry budget allows it. The retry
// delay uses the harness's deterministic backoff+jitter, seeded from a
// per-worker monotone counter.
func (w *Worker) post(path string, timeout time.Duration, body, reply any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	for attempt := 1; ; attempt++ {
		err = w.postOnce(path, timeout, raw, reply)
		if err == nil {
			return nil
		}
		if attempt >= 2 || !w.budget.take() {
			return err
		}
		delay := (harness.Retry{Backoff: 25 * time.Millisecond}).Delay(attempt, int64(w.retrySeq.Add(1)))
		select {
		case <-w.stop:
			return err
		case <-time.After(delay):
		}
	}
}

func (w *Worker) postOnce(path string, timeout time.Duration, raw []byte, reply any) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("coordinator returned %s", resp.Status)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(reply)
}

// fetchWarm is the harness warm-fetch hook: ask the coordinator who holds
// the key (up to two ranked holders), then hedge-fetch the snapshot —
// race the first holder against a delayed second leg, cancel the loser,
// verify the content hash, and report corrupt peers to the coordinator.
// Every failure declines the fetch — the caller trains locally, which is
// always correct, just slower; a sweep never wedges on fetch failures.
func (w *Worker) fetchWarm(key harness.WarmStateKey) (*cpu.Snapshot, bool) {
	q := url.Values{"key": {key.String()}, "from": {w.cfg.Name}}
	ctx, cancel := context.WithTimeout(context.Background(), w.cfg.Timeouts.Control)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.cfg.Coordinator+"/v1/cluster/snapshots?"+q.Encode(), nil)
	if err != nil {
		cancel()
		return nil, false
	}
	resp, err := w.client.Do(req)
	if err != nil {
		cancel()
		return nil, false
	}
	var locs SnapshotLocations
	err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&locs)
	resp.Body.Close()
	cancel()
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, false
	}
	holders := locs.Holders[:0:len(locs.Holders)]
	for _, loc := range locs.Holders {
		if loc.Addr != "" && loc.Addr != w.cfg.SelfURL {
			holders = append(holders, loc)
		}
	}
	if len(holders) == 0 {
		return nil, false
	}
	snap, loc, ok := w.hedgedFetch(holders)
	if !ok {
		return nil, false
	}
	w.log.Info("warm snapshot fetched from peer", "peer", loc.Worker, "key", key.String())
	return snap, true
}

// hedgedFetch races up to two fetch legs: leg one to the first-ranked
// holder immediately, leg two after HedgeDelay (or immediately if leg one
// fails first) to the second holder — or the same holder again when only
// one exists, which retries past per-request faults. The first verified
// snapshot wins and the loser's context is cancelled.
func (w *Worker) hedgedFetch(holders []SnapshotLocation) (*cpu.Snapshot, SnapshotLocation, bool) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type legResult struct {
		snap *cpu.Snapshot
		loc  SnapshotLocation
		leg  int
		err  error
	}
	results := make(chan legResult, 2)
	launch := func(leg int, loc SnapshotLocation) {
		go func() {
			snap, err := w.fetchFromHolder(ctx, loc)
			results <- legResult{snap: snap, loc: loc, leg: leg, err: err}
		}()
	}

	second := holders[0]
	if len(holders) > 1 {
		second = holders[1]
	}
	launch(0, holders[0])
	started := 1
	hedge := time.NewTimer(w.cfg.HedgeDelay)
	defer hedge.Stop()

	failures := 0
	for {
		select {
		case r := <-results:
			if r.err == nil {
				if r.leg > 0 {
					w.m.hedge.Add(1, "win")
				} else if started > 1 {
					w.m.hedge.Add(1, "loss")
				}
				return r.snap, r.loc, true
			}
			failures++
			if started < 2 {
				// Primary failed before the hedge fired: launch the second
				// leg now, if the retry budget allows the extra request.
				hedge.Stop()
				if !w.budget.take() {
					return nil, SnapshotLocation{}, false
				}
				launch(1, second)
				started = 2
			} else if failures >= started {
				return nil, SnapshotLocation{}, false
			}
		case <-hedge.C:
			if started < 2 {
				launch(1, second)
				started = 2
			}
		}
	}
}

// fetchFromHolder downloads and verifies one snapshot. Verification
// failures (undecodable wire envelope, content-hash mismatch) count the
// corrupt metric and report the peer to the coordinator before failing the
// leg, so the hedge (or a later fetch) lands on a different holder.
func (w *Worker) fetchFromHolder(ctx context.Context, loc SnapshotLocation) (*cpu.Snapshot, error) {
	blob, err := w.getSnapshot(ctx, loc.Addr, loc.Hash)
	if err != nil {
		return nil, err
	}
	snap, err := cpu.DecodeSnapshot(blob)
	if err != nil {
		w.noteCorrupt(loc, err)
		return nil, fmt.Errorf("corrupt snapshot from %s: %w", loc.Worker, err)
	}
	if got := fmt.Sprintf("%016x", snap.Hash()); got != loc.Hash {
		err = fmt.Errorf("hash mismatch: want %s got %s", loc.Hash, got)
		w.noteCorrupt(loc, err)
		return nil, fmt.Errorf("corrupt snapshot from %s: %w", loc.Worker, err)
	}
	return snap, nil
}

// noteCorrupt accounts one corrupt peer delivery and flags the peer to the
// coordinator (best-effort — the local rejection alone already keeps the
// corruption out of the warm cache).
func (w *Worker) noteCorrupt(loc SnapshotLocation, err error) {
	w.m.fetchCorrupt.Add(1)
	w.log.Warn("peer snapshot rejected as corrupt", "peer", loc.Worker, "hash", loc.Hash, "err", err)
	var ack struct {
		OK bool `json:"ok"`
	}
	if perr := w.post("/v1/cluster/report-peer", w.cfg.Timeouts.Control,
		PeerReport{From: w.cfg.Name, Peer: loc.Worker, Class: rpcFailCorrupt}, &ack); perr != nil {
		w.log.Warn("peer report failed", "peer", loc.Worker, "err", perr)
	}
}

// snapshotBlob materializes the encoded snapshot with the given content
// hash by appending into buf: from the in-memory warm cache (encoded on
// the spot), or the persistent store's already-encoded sections.
func (w *Worker) snapshotBlob(hash string, buf []byte) ([]byte, bool) {
	for _, s := range harness.WarmSnapshots() {
		if fmt.Sprintf("%016x", s.Snap.Hash()) != hash {
			continue
		}
		blob, err := s.Snap.AppendBinary(buf)
		if err != nil {
			return nil, false
		}
		return blob, true
	}
	if w.cfg.SnapStore != nil {
		for _, e := range w.cfg.SnapStore.Entries() {
			if fmt.Sprintf("%016x", e.SnapHash) != hash {
				continue
			}
			blob, ok := w.cfg.SnapStore.LoadSnapshotBlob(e.Key)
			if !ok {
				break // entry vanished or failed verification under us
			}
			return append(buf, blob...), true
		}
	}
	return nil, false
}

// getSnapshot downloads one content-addressed snapshot blob from a peer
// under a deadline sized to the blob: FetchBase covers dialing and headers,
// then the deadline is extended per advertised MB once headers arrive.
func (w *Worker) getSnapshot(parent context.Context, addr, hash string) ([]byte, error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	timer := time.AfterFunc(w.cfg.Timeouts.FetchBase, cancel)
	defer timer.Stop()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/snapshots/"+hash, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer returned %s", resp.Status)
	}
	timer.Reset(w.cfg.Timeouts.fetchDeadline(resp.ContentLength))
	return io.ReadAll(io.LimitReader(resp.Body, 64<<20))
}

// acceptAssignment admits one coordinator assignment into the wrapped
// service. The response distinguishes backpressure (Saturated — full local
// queue, requeued upstream without breaker feedback) from real rejection.
func (w *Worker) acceptAssignment(req RunRequest) RunResponse {
	if req.ID == "" {
		return RunResponse{Error: "missing job id"}
	}
	w.mu.Lock()
	_, dup := w.local[req.ID]
	w.mu.Unlock()
	if dup {
		// Idempotent re-assignment (coordinator retry): already accepted.
		return RunResponse{ID: req.ID, Accepted: true}
	}
	v, err := w.svc.Submit(req.Experiment, req.Params, "", time.Duration(req.TimeoutMS)*time.Millisecond)
	if err != nil {
		if errors.Is(err, service.ErrQueueFull) || errors.Is(err, service.ErrDraining) || errors.Is(err, service.ErrBreakerOpen) {
			w.m.rejected.Add(1)
			return RunResponse{ID: req.ID, Saturated: true, Error: err.Error()}
		}
		return RunResponse{ID: req.ID, Error: err.Error()}
	}
	w.mu.Lock()
	w.local[req.ID] = v.ID
	w.mu.Unlock()
	w.m.assignments.Add(1)
	w.log.Info("assignment accepted", "cluster_job", req.ID, "local_job", v.ID, "experiment", req.Experiment)
	return RunResponse{ID: req.ID, Accepted: true}
}

// Handler returns the worker's HTTP surface: the cluster control routes
// plus, as a fallback, the wrapped service's full API (so a worker is
// inspectable and even directly usable like a standalone daemon). The
// service's /metrics carries the worker's families too.
//
//	POST /v1/cluster/run    accept one assignment (429 on a full queue)
//	POST /v1/cluster/runs   accept one dispatch tick's assignment batch
//	GET  /snapshots         content-addressed snapshot index
//	GET  /snapshots/{hash}  one encoded snapshot blob
//	...                     everything else: the embedded service API
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/cluster/run", func(rw http.ResponseWriter, r *http.Request) {
		var req RunRequest
		if !service.ReadJSON(rw, r, &req) {
			return
		}
		rr := w.acceptAssignment(req)
		switch {
		case rr.Accepted:
			service.WriteJSON(rw, http.StatusOK, rr)
		case rr.Saturated:
			service.WriteJSON(rw, http.StatusTooManyRequests, map[string]any{"error": rr.Error})
		default:
			service.WriteJSON(rw, http.StatusBadRequest, map[string]any{"error": rr.Error})
		}
	})

	mux.HandleFunc("POST /v1/cluster/runs", func(rw http.ResponseWriter, r *http.Request) {
		var batch RunBatch
		if !service.ReadJSON(rw, r, &batch) {
			return
		}
		reply := RunBatchReply{Results: make([]RunResponse, len(batch.Jobs))}
		for i, req := range batch.Jobs {
			reply.Results[i] = w.acceptAssignment(req)
		}
		service.WriteJSON(rw, http.StatusOK, reply)
	})

	mux.HandleFunc("GET /snapshots", func(rw http.ResponseWriter, r *http.Request) {
		type entry struct {
			Key  string `json:"key"`
			Hash string `json:"hash"`
		}
		ads := w.advertisements()
		out := make([]entry, 0, len(ads))
		for _, a := range ads {
			out = append(out, entry{Key: a.Key, Hash: a.Hash})
		}
		service.WriteJSON(rw, http.StatusOK, map[string]any{"total": len(out), "snapshots": out})
	})

	mux.HandleFunc("GET /snapshots/{hash}", func(rw http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		tbuf := blobPool.Get().(*[]byte)
		defer blobPool.Put(tbuf)
		blob, ok := w.snapshotBlob(hash, (*tbuf)[:0])
		if cap(blob) > cap(*tbuf) {
			*tbuf = blob[:0]
		}
		if !ok {
			service.WriteJSON(rw, http.StatusNotFound, map[string]any{"error": "no snapshot with that hash"})
			return
		}
		w.m.snapshotServes.Add(1)
		rw.Header().Set("Content-Type", "application/octet-stream")
		rw.Header().Set("Content-Length", fmt.Sprint(len(blob)))
		_, _ = rw.Write(blob)
	})

	mux.Handle("/", w.svc.Handler())
	return mux
}
