package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"pathfinder/internal/chaosnet"
	"pathfinder/internal/cpu"
	"pathfinder/internal/harness"
	"pathfinder/internal/service"
	"pathfinder/internal/snapstore"
)

// The chaos-convergence harness: real coordinator+worker topologies wired
// through one chaosnet.Network, asserting that the cluster's resilience
// machinery (per-peer breakers, retry budgets, hedged fetches, lease
// reassignment, degraded-mode shedding) preserves the byte-identity
// contract under partitions, loss, duplication and corruption.
//
// The chaos fabric covers the intra-cluster links only (coordinator ↔
// workers, worker ↔ worker); the test's own client polls the coordinator
// over a clean connection, standing in for an operator outside the blast
// radius.

func hostport(baseURL string) string {
	return strings.TrimPrefix(baseURL, "http://")
}

// startChaosNode mirrors startWorkerNode with the node's HTTP client routed
// through the chaos fabric. The host:port → name mapping is registered
// before the worker starts, so every request the node ever sends is
// attributed to its topology name.
func startChaosNode(t *testing.T, net *chaosnet.Network, coordURL, name string, reg *service.Registry, wcfg WorkerConfig) *node {
	t.Helper()
	n := &node{svc: service.New(service.Config{Registry: reg, Workers: 2, QueueDepth: 32})}
	n.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		n.w.Handler().ServeHTTP(rw, r)
	}))
	net.SetName(hostport(n.srv.URL), name)
	wcfg.Name = name
	wcfg.Coordinator = coordURL
	wcfg.SelfURL = n.srv.URL
	if wcfg.Heartbeat == 0 {
		wcfg.Heartbeat = 20 * time.Millisecond
	}
	wcfg.HTTPClient = net.Client(name, nil)
	var err error
	n.w, err = NewWorker(wcfg, n.svc)
	if err != nil {
		t.Fatal(err)
	}
	n.w.Start()
	t.Cleanup(func() {
		n.w.Stop()
		n.srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = n.svc.Shutdown(ctx)
	})
	return n
}

// standaloneReport runs one batch on a fresh standalone service and returns
// the canonical report bytes — the reference every chaos topology must hit.
func standaloneReport(t *testing.T, req service.BatchRequest) []byte {
	t.Helper()
	svc := service.New(service.Config{Registry: ctestRegistry(), Workers: 2, QueueDepth: 32})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()
	var resp struct {
		Batch string `json:"batch"`
	}
	if st := postJSON(t, srv.URL+"/v1/batch", req, &resp); st != http.StatusAccepted {
		t.Fatalf("standalone batch submit: status %d", st)
	}
	return waitReport(t, srv.URL, resp.Batch)
}

// waitFor polls cond until it holds, failing the test after 10s. The chaos
// tests need it because some effects (peer reports, duplicate results)
// complete asynchronously after the observable success path returns.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

var chaosSweepReq = service.BatchRequest{
	Experiment: "ctest",
	Sweep: &service.Sweep{
		Archs: []string{"alderlake", "skylake"},
		Seeds: []int64{1, 2, 3, 4, 5, 6},
	},
}

// TestChaosSweepConvergence is the headline acceptance criterion: a
// coordinator+2-worker grid sweep run under scripted directional
// partitions, >=10% per-link request/response loss, latency spikes,
// duplicated deliveries, resets and response corruption still renders a
// report byte-identical to the standalone service, with every job finishing
// exactly once.
func TestChaosSweepConvergence(t *testing.T) {
	want := standaloneReport(t, chaosSweepReq)

	net := chaosnet.New(chaosnet.Config{
		Seed: 42,
		Base: chaosnet.Profile{
			DropRequestProb:  0.12,
			DropResponseProb: 0.10,
			LatencyProb:      0.20,
			LatencyMin:       time.Millisecond,
			LatencyMax:       8 * time.Millisecond,
			DuplicateProb:    0.05,
			ResetProb:        0.05,
			CorruptProb:      0.03,
			TruncateProb:     0.02,
		},
		Schedule: []chaosnet.Rule{
			// Assignment requests 2-4 to w0 hit a partition window: three
			// consecutive failures on the link, opening w0's breaker and
			// exercising quarantine + inflight requeue mid-sweep.
			{From: "coord", To: "w0", FirstReq: 2, LastReq: 4, Partition: true},
			// w1's control plane (heartbeats, result pushes) loses a window
			// too; the worker must ride it out on retries and resends.
			{From: "w1", To: "coord", FirstReq: 3, LastReq: 5, Partition: true},
		},
	})

	_, csrv := startCoord(t, CoordinatorConfig{
		HTTPClient:          net.Client("coord", nil),
		MaxAssigns:          100, // chaos-driven requeues must never exhaust a job
		PeerBreakerCooldown: 300 * time.Millisecond,
	})
	net.SetName(hostport(csrv.URL), "coord")
	startChaosNode(t, net, csrv.URL, "w0", ctestRegistry(), WorkerConfig{})
	startChaosNode(t, net, csrv.URL, "w1", ctestRegistry(), WorkerConfig{})
	waitWorkers(t, csrv.URL, 2)

	var resp struct {
		Batch string `json:"batch"`
	}
	if st := postJSON(t, csrv.URL+"/v1/batch", chaosSweepReq, &resp); st != http.StatusAccepted {
		t.Fatalf("cluster batch submit: status %d", st)
	}
	got := waitReport(t, csrv.URL, resp.Batch)
	if !bytes.Equal(got, want) {
		t.Errorf("chaos sweep report diverges from standalone:\ngot:  %s\nwant: %s", got, want)
	}
	var rep service.Report
	if err := json.Unmarshal(got, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Total != 12 || rep.ByState[service.StateDone] != 12 {
		t.Errorf("total %d, by_state %v; want 12 jobs all done", rep.Total, rep.ByState)
	}

	// The chaos actually fired: the scripted partition window is hit
	// deterministically (the first dispatch pass sends w0 at least four
	// assignments), and the probabilistic faults land across the hundreds
	// of control-plane requests a sweep generates.
	stats := net.Stats()
	if stats[chaosnet.FaultPartition] < 3 {
		t.Errorf("partition faults = %d, want >= 3 (scripted window)", stats[chaosnet.FaultPartition])
	}
	var injected uint64
	for _, k := range []chaosnet.FaultKind{
		chaosnet.FaultDropReq, chaosnet.FaultDropResp, chaosnet.FaultLatency,
		chaosnet.FaultDuplicate, chaosnet.FaultReset,
	} {
		injected += stats[k]
	}
	if injected < 3 {
		t.Errorf("probabilistic faults injected = %d (%s), want >= 3", injected, chaosnet.Describe(stats))
	}

	// The scripted window quarantined w0 (three consecutive assignment
	// failures), and the resilience surface reports it.
	if n := scrapeMetric(t, csrv.URL+"/metrics", "pathfinderd_cluster_quarantines_total"); n < 1 {
		t.Errorf("quarantines = %v, want >= 1", n)
	}
	t.Logf("chaos faults injected: %s", chaosnet.Describe(stats))
}

// TestChaosPartitionLeaseReassignment is the partitioned-not-killed case:
// a worker holding a job loses both link directions, the lease expires and
// the job is reassigned and finishes exactly once on the survivor; when the
// partition heals, the stale worker's late done result is idempotently
// ignored.
func TestChaosPartitionLeaseReassignment(t *testing.T) {
	release := make(chan struct{})
	gateReg := func(blocking bool) *service.Registry {
		r := ctestRegistry()
		if err := r.Register(service.Experiment{
			Name:        "gate",
			Description: "blocks on one worker until released",
			Run: func(ctx context.Context, p service.Params) (any, cpu.Counters, error) {
				if blocking {
					select {
					case <-release:
					case <-ctx.Done():
						return nil, cpu.Counters{}, ctx.Err()
					}
				}
				return struct {
					Seed int64 `json:"seed"`
				}{p.Seed}, cpu.Counters{}, nil
			},
		}); err != nil {
			t.Fatal(err)
		}
		return r
	}

	net := chaosnet.New(chaosnet.Config{Seed: 1}) // manual partitions only
	_, csrv := startCoord(t, CoordinatorConfig{
		Registry:     gateReg(false),
		LeaseTTL:     150 * time.Millisecond,
		WorkerExpiry: 250 * time.Millisecond,
		HTTPClient:   net.Client("coord", nil),
	})
	net.SetName(hostport(csrv.URL), "coord")
	// Sorted-name tie-breaking pins the first assignment onto "a-part".
	wedged := startChaosNode(t, net, csrv.URL, "a-part", gateReg(true), WorkerConfig{})
	startChaosNode(t, net, csrv.URL, "b-live", gateReg(false), WorkerConfig{})
	waitWorkers(t, csrv.URL, 2)

	var v service.JobView
	postJSON(t, csrv.URL+"/v1/jobs", service.SubmitRequest{
		Experiment: "gate", Params: service.Params{Seed: 7},
	}, &v)
	waitFor(t, "a-part to hold the job", func() bool {
		return len(wedged.svc.List(service.ListFilter{})) > 0
	})

	// Cut both directions: the worker keeps running (unlike a crash) but
	// can neither heartbeat nor receive anything.
	net.SetPartition("a-part", "coord", true)
	net.SetPartition("coord", "a-part", true)

	done := waitJobDone(t, csrv.URL, v.ID)
	if done.State != service.StateDone {
		t.Fatalf("job state %s (%s), want done", done.State, done.Error)
	}
	if done.Worker != "b-live" {
		t.Errorf("job finished on %q, want reassignment to b-live", done.Worker)
	}
	if n := scrapeMetric(t, csrv.URL+"/metrics", "pathfinderd_cluster_lease_reassignments_total"); n < 1 {
		t.Errorf("lease reassignments = %v, want >= 1", n)
	}

	// Let the partitioned copy finish too — a genuine duplicate done, not a
	// relayed cancellation — then heal and require it to be swallowed.
	close(release)
	waitFor(t, "the partitioned copy to finish locally", func() bool {
		for _, lv := range wedged.svc.List(service.ListFilter{Experiment: "gate"}) {
			if lv.State == service.StateDone {
				return true
			}
		}
		return false
	})
	dup0 := scrapeMetric(t, csrv.URL+"/metrics", "pathfinderd_cluster_duplicate_results_total")
	net.SetPartition("a-part", "coord", false)
	net.SetPartition("coord", "a-part", false)
	waitFor(t, "the late duplicate done to be ignored", func() bool {
		return scrapeMetric(t, csrv.URL+"/metrics", "pathfinderd_cluster_duplicate_results_total") > dup0
	})

	// Exactly one terminal result mutated the job, and the credited worker
	// did not change under the late report.
	var final service.JobView
	getJSON(t, csrv.URL+"/v1/jobs/"+v.ID, &final)
	if final.State != service.StateDone || final.Worker != "b-live" {
		t.Errorf("after heal: state %s on %q, want done on b-live", final.State, final.Worker)
	}
	if n := scrapeMetric(t, csrv.URL+"/metrics", `pathfinderd_cluster_results_total{state="done"}`); n != 1 {
		t.Errorf("done results = %v, want exactly 1", n)
	}
}

// chaosHolder builds an unstarted worker whose persistent snapshot store
// holds the given snapshot, served over its real HTTP handler — a snapshot
// holder without the weight of live heartbeats or training.
func chaosHolder(t *testing.T, name, key string, snap *cpu.Snapshot) *httptest.Server {
	t.Helper()
	st, err := snapstore.Open(t.TempDir(), snapstore.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	st.Save(key, snap, nil)
	svc := service.New(service.Config{Workers: 1, QueueDepth: 4})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	w, err := NewWorker(WorkerConfig{
		Name: name, Coordinator: "http://coord.invalid", SelfURL: "http://" + name + ".invalid",
		SnapStore: st,
	}, svc)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// advertiseHolder registers a holder with the coordinator by posting a
// heartbeat on its behalf, pinning the worker directory and warm-key index
// without a live heartbeat loop.
func advertiseHolder(t *testing.T, coordURL, name, addr, key, hash string) {
	t.Helper()
	var reply HeartbeatReply
	if st := postJSON(t, coordURL+"/v1/cluster/heartbeat", Heartbeat{
		Worker: name, Addr: addr, Capacity: 1,
		WarmKeys: []WarmAd{{Key: key, Hash: hash}},
	}, &reply); st != http.StatusOK {
		t.Fatalf("heartbeat for %s: status %d", name, st)
	}
}

// TestChaosHedgedFetchWins: the first warm-fetch leg loses its response in
// flight (the holder served it — the drop is downstream), the hedge leg
// retries and delivers, and the win is visible on the worker's metrics.
func TestChaosHedgedFetchWins(t *testing.T) {
	m := cpu.New(cpu.Options{Seed: 11})
	snap := m.Snapshot()
	const key = "chaos-hedge|Alder Lake|194|0000000000000abc|11|0"
	hash := fmt.Sprintf("%016x", snap.Hash())

	net := chaosnet.New(chaosnet.Config{
		Seed: 5,
		Schedule: []chaosnet.Rule{
			// Exactly the first fetch on the w1→w0 link loses its response.
			{From: "w1", To: "w0", FirstReq: 1, LastReq: 1,
				Profile: &chaosnet.Profile{DropResponseProb: 1}},
		},
	})
	_, csrv := startCoord(t, CoordinatorConfig{})
	net.SetName(hostport(csrv.URL), "coord")
	w0srv := chaosHolder(t, "w0", key, snap)
	net.SetName(hostport(w0srv.URL), "w0")
	advertiseHolder(t, csrv.URL, "w0", w0srv.URL, key, hash)

	svc := service.New(service.Config{Workers: 1, QueueDepth: 4})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()
	w1, err := NewWorker(WorkerConfig{
		Name: "w1", Coordinator: csrv.URL, SelfURL: "http://w1.invalid",
		HTTPClient: net.Client("w1", nil),
		HedgeDelay: 20 * time.Millisecond,
	}, svc)
	if err != nil {
		t.Fatal(err)
	}
	w1srv := httptest.NewServer(w1.Handler())
	defer w1srv.Close()

	wk, err := harness.ParseWarmStateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := w1.fetchWarm(wk)
	if !ok {
		t.Fatal("hedged fetch failed outright; the hedge leg should have delivered")
	}
	if got.Hash() != snap.Hash() {
		t.Fatalf("fetched snapshot hash %#x, want %#x", got.Hash(), snap.Hash())
	}
	if n := scrapeMetric(t, w1srv.URL+"/metrics", `pathfinderd_worker_hedge_total{outcome="win"}`); n < 1 {
		t.Errorf("hedge wins = %v, want >= 1", n)
	}
	if n := net.Stats()[chaosnet.FaultDropResp]; n < 1 {
		t.Errorf("drop_response faults = %d, want >= 1", n)
	}
	// Drop-response semantics: the holder served both legs — the first
	// response died in transit, not on the server.
	if n := scrapeMetric(t, w0srv.URL+"/metrics", "pathfinderd_worker_snapshot_serves_total"); n < 2 {
		t.Errorf("holder serves = %v, want >= 2 (dropped leg reached it)", n)
	}
}

// TestChaosCorruptFetchMarksPeerAndFailsOver is the transport-edge
// corruption satellite: every snapshot byte stream from one holder is
// corrupted in flight, the fetching worker rejects it against the wire
// envelope, counts warm_fetch_corrupt, reports the peer — quarantining it —
// and the hedge leg retries the next holder successfully.
func TestChaosCorruptFetchMarksPeerAndFailsOver(t *testing.T) {
	m := cpu.New(cpu.Options{Seed: 13})
	snap := m.Snapshot()
	const key = "chaos-corrupt|Alder Lake|194|0000000000000abc|13|0"
	hash := fmt.Sprintf("%016x", snap.Hash())

	net := chaosnet.New(chaosnet.Config{
		Seed: 9,
		Schedule: []chaosnet.Rule{
			// Everything w0 sends w1 arrives damaged.
			{From: "w1", To: "w0", Profile: &chaosnet.Profile{CorruptProb: 1}},
		},
	})
	_, csrv := startCoord(t, CoordinatorConfig{
		PeerBreakerThreshold: 1, // one corruption report quarantines the peer
	})
	net.SetName(hostport(csrv.URL), "coord")
	w0srv := chaosHolder(t, "w0", key, snap)
	w2srv := chaosHolder(t, "w2", key, snap)
	net.SetName(hostport(w0srv.URL), "w0")
	net.SetName(hostport(w2srv.URL), "w2")
	// w0 heartbeats last: freshest-first ranking (ties broken by name) pins
	// it as the primary leg, so the corrupt link is always tried first.
	advertiseHolder(t, csrv.URL, "w2", w2srv.URL, key, hash)
	advertiseHolder(t, csrv.URL, "w0", w0srv.URL, key, hash)

	svc := service.New(service.Config{Workers: 1, QueueDepth: 4})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()
	w1, err := NewWorker(WorkerConfig{
		Name: "w1", Coordinator: csrv.URL, SelfURL: "http://w1.invalid",
		HTTPClient: net.Client("w1", nil),
	}, svc)
	if err != nil {
		t.Fatal(err)
	}
	w1srv := httptest.NewServer(w1.Handler())
	defer w1srv.Close()

	wk, err := harness.ParseWarmStateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := w1.fetchWarm(wk)
	if !ok {
		t.Fatal("fetch failed outright; the clean holder should have delivered")
	}
	if got.Hash() != snap.Hash() {
		t.Fatalf("fetched snapshot hash %#x, want %#x", got.Hash(), snap.Hash())
	}
	if n := net.Stats()[chaosnet.FaultCorrupt]; n < 1 {
		t.Fatalf("corrupt faults = %d, want >= 1", n)
	}

	// The corrupt delivery is counted on the worker's metric and the peer
	// report lands at the coordinator, which quarantines w0 and stops
	// offering it as a holder. Both happen on the losing fetch leg's
	// goroutine, so poll rather than assert immediately.
	waitFor(t, "warm_fetch_corrupt to be counted", func() bool {
		return scrapeMetric(t, w1srv.URL+"/metrics", "pathfinderd_worker_warm_fetch_corrupt_total") >= 1
	})
	waitFor(t, "w0 to be quarantined", func() bool {
		var sv StatusView
		getJSON(t, csrv.URL+"/cluster/status", &sv)
		for _, ws := range sv.Workers {
			if ws.Name == "w0" {
				return ws.Quarantined
			}
		}
		return false
	})
	if n := scrapeMetric(t, csrv.URL+"/metrics", `pathfinderd_cluster_peer_reports_total{class="corrupt"}`); n < 1 {
		t.Errorf("peer reports (corrupt) = %v, want >= 1", n)
	}
	if n := scrapeMetric(t, csrv.URL+"/metrics", "pathfinderd_cluster_quarantines_total"); n < 1 {
		t.Errorf("quarantines = %v, want >= 1", n)
	}

	var locs SnapshotLocations
	st := getJSON(t, csrv.URL+"/v1/cluster/snapshots?key="+url.QueryEscape(key)+"&from=w1", &locs)
	if st != http.StatusOK || len(locs.Holders) != 1 || locs.Holders[0].Worker != "w2" {
		t.Errorf("post-quarantine holders = %+v (status %d), want exactly w2", locs.Holders, st)
	}
}

// TestChaosDegradedModeConvergence: with its only worker fully partitioned,
// the coordinator quarantines it and sheds the sweep to in-process
// execution — byte-identical to standalone — then recovers the worker
// through a probe once the partition heals.
func TestChaosDegradedModeConvergence(t *testing.T) {
	want := standaloneReport(t, sweepReq)

	net := chaosnet.New(chaosnet.Config{Seed: 3})
	_, csrv := startCoord(t, CoordinatorConfig{
		HTTPClient:          net.Client("coord", nil),
		DegradedAfter:       200 * time.Millisecond,
		PeerBreakerCooldown: time.Second,
		MaxAssigns:          20,
	})
	net.SetName(hostport(csrv.URL), "coord")
	startChaosNode(t, net, csrv.URL, "w0", ctestRegistry(), WorkerConfig{})
	waitWorkers(t, csrv.URL, 1)

	net.SetPartition("coord", "w0", true)
	net.SetPartition("w0", "coord", true)

	var resp struct {
		Batch string `json:"batch"`
	}
	if st := postJSON(t, csrv.URL+"/v1/batch", sweepReq, &resp); st != http.StatusAccepted {
		t.Fatalf("batch submit: status %d", st)
	}
	got := waitReport(t, csrv.URL, resp.Batch)
	if !bytes.Equal(got, want) {
		t.Errorf("degraded-mode report diverges from standalone:\ngot:  %s\nwant: %s", got, want)
	}
	if n := scrapeMetric(t, csrv.URL+"/metrics", "pathfinderd_cluster_degraded_runs_total"); n != 6 {
		t.Errorf("degraded runs = %v, want 6", n)
	}
	if n := scrapeMetric(t, csrv.URL+"/metrics", "pathfinderd_cluster_degraded"); n != 1 {
		t.Errorf("degraded gauge = %v, want 1 while shedding", n)
	}
	if n := scrapeMetric(t, csrv.URL+"/metrics", "pathfinderd_cluster_quarantines_total"); n < 1 {
		t.Errorf("quarantines = %v, want >= 1", n)
	}

	// Heal. The worker rejoins on its next heartbeat; once the breaker
	// cooldown lapses a probe assignment lands on it, closing the breaker
	// and ending degraded mode. Early submissions may still run in-process
	// — keep submitting until one executes on the worker.
	net.SetPartition("coord", "w0", false)
	net.SetPartition("w0", "coord", false)

	recovered := false
	deadline := time.Now().Add(15 * time.Second)
	for !recovered && time.Now().Before(deadline) {
		var v service.JobView
		postJSON(t, csrv.URL+"/v1/jobs", service.SubmitRequest{
			Experiment: "ctest", Params: service.Params{Arch: "alderlake", Seed: 99},
		}, &v)
		done := waitJobDone(t, csrv.URL, v.ID)
		recovered = done.Worker == "w0"
	}
	if !recovered {
		t.Fatal("no job returned to the healed worker; probe recovery failed")
	}
	if n := scrapeMetric(t, csrv.URL+"/metrics", "pathfinderd_cluster_probes_total"); n < 1 {
		t.Errorf("probes = %v, want >= 1", n)
	}
	var sv StatusView
	getJSON(t, csrv.URL+"/cluster/status", &sv)
	if sv.Degraded {
		t.Error("coordinator still degraded after the worker recovered")
	}
	for _, ws := range sv.Workers {
		if ws.Name == "w0" && ws.Quarantined {
			t.Error("w0 still quarantined after a successful probe")
		}
	}
}

var chaosFuzzReq = service.BatchRequest{
	Experiment: "ctest",
	Sweep: &service.Sweep{
		Archs: []string{"alderlake", "skylake"},
		Seeds: []int64{1, 2},
	},
}

var (
	chaosRefOnce sync.Once
	chaosRef     []byte
)

func chaosFuzzReference(t *testing.T) []byte {
	chaosRefOnce.Do(func() {
		chaosRef = standaloneReport(t, chaosFuzzReq)
	})
	if chaosRef == nil {
		t.Fatal("standalone reference report unavailable")
	}
	return chaosRef
}

// FuzzChaosSchedule: arbitrary bounded fault schedules — probabilistic loss
// up to 25% per kind plus one scripted finite partition window on a random
// link — must never break report byte-identity or deadlock the coordinator
// (waitReport's deadline doubles as the deadlock detector).
func FuzzChaosSchedule(f *testing.F) {
	f.Add(int64(1), byte(12), byte(10), byte(8), byte(4), byte(3), byte(2), byte(0), byte(1), byte(2))
	f.Add(int64(7), byte(25), byte(0), byte(0), byte(0), byte(0), byte(0), byte(3), byte(4), byte(3))
	f.Add(int64(99), byte(5), byte(20), byte(15), byte(10), byte(8), byte(9), byte(1), byte(0), byte(0))
	f.Fuzz(func(t *testing.T, seed int64, dropReq, dropResp, lat, reset, dup, corrupt, link, first, span byte) {
		base := chaosnet.Profile{
			DropRequestProb:  float64(dropReq%26) / 100,
			DropResponseProb: float64(dropResp%26) / 100,
			LatencyProb:      float64(lat%21) / 100,
			LatencyMax:       5 * time.Millisecond,
			ResetProb:        float64(reset%16) / 100,
			DuplicateProb:    float64(dup%16) / 100,
			CorruptProb:      float64(corrupt%11) / 100,
		}
		// The partition window is bounded by request index, so every link
		// always heals: unbounded partitions would make loss of liveness
		// correct behaviour and the fuzz target meaningless.
		links := [][2]string{{"coord", "w0"}, {"coord", "w1"}, {"w0", "coord"}, {"w1", "coord"}}
		pick := links[int(link)%len(links)]
		fr := 1 + int(first%6)
		rule := chaosnet.Rule{
			From: pick[0], To: pick[1], Partition: true,
			FirstReq: fr, LastReq: fr + int(span%4),
		}

		net := chaosnet.New(chaosnet.Config{Seed: seed, Base: base, Schedule: []chaosnet.Rule{rule}})
		_, csrv := startCoord(t, CoordinatorConfig{
			HTTPClient:          net.Client("coord", nil),
			MaxAssigns:          100,
			LeaseTTL:            300 * time.Millisecond,
			PeerBreakerCooldown: 200 * time.Millisecond,
		})
		net.SetName(hostport(csrv.URL), "coord")
		startChaosNode(t, net, csrv.URL, "w0", ctestRegistry(), WorkerConfig{})
		startChaosNode(t, net, csrv.URL, "w1", ctestRegistry(), WorkerConfig{})

		var resp struct {
			Batch string `json:"batch"`
		}
		if st := postJSON(t, csrv.URL+"/v1/batch", chaosFuzzReq, &resp); st != http.StatusAccepted {
			t.Fatalf("batch submit: status %d", st)
		}
		got := waitReport(t, csrv.URL, resp.Batch)
		if want := chaosFuzzReference(t); !bytes.Equal(got, want) {
			t.Errorf("report diverges under chaos (%s):\ngot:  %s\nwant: %s",
				chaosnet.Describe(net.Stats()), got, want)
		}
		var rep service.Report
		if err := json.Unmarshal(got, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Total != 4 || rep.ByState[service.StateDone] != 4 {
			t.Errorf("total %d, by_state %v; want 4 jobs all done", rep.Total, rep.ByState)
		}
	})
}
