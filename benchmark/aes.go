package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pathfinder/internal/cpu"
)

// aes-eval: each op is one §9 "aes" job at the service defaults (24 trials,
// transient noise 0.015, Alder Lake) with a fresh seed, submitted over HTTP to
// a standalone pathfinderd whose data directory keeps the journal, the
// result cache and the snapshot store live. As many jobs are in flight as the
// daemon's default pool has workers: one per CPU.
const (
	aesSetupReps = 15
	// aesMinOps keeps a run going past its deadline until the jobs that
	// accuracy and the simulator counts average over have all finished.
	aesMinOps = 64
	// aesPoll is how often the client polls a job. Server-side timestamps
	// give the latency, so polling delays only the next submission.
	aesPoll = 5 * time.Millisecond
	// aesJobBytes is what one job's accuracy is out of: the key's 16 bytes
	// in each of the service default's 24 trials. A job that ends without a
	// result counts as none of them right.
	aesJobBytes = 16 * 24
)

// daemon is one pathfinderd process under test.
type daemon struct {
	cmd     *exec.Cmd
	dataDir string
	api     string // base URL of the API listener
	pprof   string // base URL of the pprof listener, traced runs only
	drained chan struct{}
}

// startDaemon launches pathfinderd on ephemeral ports and returns once its
// /readyz answers 200.
func startDaemon(ctx context.Context, bin, dataDir string, trace bool) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no pathfinderd binary given (-daemon)")
	}
	args := []string{"-addr", "127.0.0.1:0", "-data-dir", dataDir}
	if trace {
		args = append(args, "-pprof-addr", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// Should the benchmark itself be killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, dataDir: dataDir, drained: make(chan struct{})}
	// The daemon logs every job to stdout: read it to the end, or a full
	// pipe would stall the daemon. The pprof listener is announced first.
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		var pp string
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "pprof listening on "); ok {
				pp = strings.TrimSuffix(a, "/debug/pprof/")
			}
			if a, ok := strings.CutPrefix(line, "pathfinderd listening on "); ok {
				addrs <- [2]string{a, pp}
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case a := <-addrs:
		d.api, d.pprof = a[0], a[1]
	case <-d.drained:
		d.stop()
		return nil, errors.New("pathfinderd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("pathfinderd did not start listening within 30s")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(d.api + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("pathfinderd not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, kills it if it hangs, and waits for
// it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait()
}

// jobView is the slice of the service's job JSON the benchmark reads.
type jobView struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Submitted time.Time  `json:"submitted_at"`
	Started   *time.Time `json:"started_at"`
	Finished  *time.Time `json:"finished_at"`
	Error     string     `json:"error"`
	Result    *struct {
		ByteSuccesses int  `json:"byte_successes"`
		TotalBytes    int  `json:"total_bytes"`
		KeyRecovered  bool `json:"key_recovered"`
	} `json:"result"`
	SimStats *cpu.Counters `json:"sim_stats"`
}

// aesJob is one finished op.
type aesJob struct {
	index      int
	sent, seen time.Time // client: submission sent, terminal state observed
	view       jobView
}

// ok reports the op's correctness check: the job ended done and recovered
// the key.
func (j *aesJob) ok() bool {
	return j.view.State == "done" && j.view.Finished != nil && j.view.Result != nil && j.view.Result.KeyRecovered
}

// serverLatency is the job's own submitted_at → finished_at.
func (j *aesJob) serverLatency() time.Duration {
	if j.view.Finished == nil {
		return j.seen.Sub(j.sent)
	}
	return j.view.Finished.Sub(j.view.Submitted)
}

func getJSON(c *http.Client, url string, v any) error {
	b, err := fetch(c, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// runJob submits one aes job and polls it to a terminal state.
func runJob(ctx context.Context, c *http.Client, api string, index int, seed int64) (*aesJob, error) {
	body, err := json.Marshal(map[string]any{"experiment": "aes", "params": map[string]any{"seed": seed}})
	if err != nil {
		return nil, err
	}
	j := &aesJob{index: index, sent: time.Now()}
	resp, err := c.Post(api+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&j.view)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: %s", resp.Status)
	}
	for {
		switch j.view.State {
		case "done", "failed", "cancelled":
			j.seen = time.Now()
			return j, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(aesPoll):
		}
		if err := getJSON(c, api+"/v1/jobs/"+j.view.ID, &j.view); err != nil {
			return nil, err
		}
	}
}

func runAESEval(ctx context.Context, cfg config) (*measurement, error) {
	m := &measurement{layers: map[string]float64{}}
	var d *daemon
	for r := range aesSetupReps {
		t := time.Now()
		next, err := startDaemon(ctx, cfg.daemon, filepath.Join(cfg.work, fmt.Sprintf("data-%d", r)), cfg.trace)
		if err != nil {
			if d != nil {
				d.stop()
			}
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t))
		if d != nil {
			d.stop()
		}
		d = next
	}
	defer d.stop()
	pid := d.cmd.Process.Pid
	inflight := runtime.NumCPU()
	client := &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: inflight + 2},
	}
	journal := filepath.Join(d.dataDir, "journal.jsonl")

	type fetched struct {
		b   []byte
		err error
	}
	var before daemonSnapshot
	profile := make(chan fetched, 1)
	if cfg.trace {
		var err error
		if before, err = snapshotDaemon(client, d, journal); err != nil {
			return nil, err
		}
		// The profile answers only after cfg.seconds, so it gets a client
		// of its own whose timeout allows for that.
		profClient := &http.Client{Timeout: time.Duration(cfg.seconds)*time.Second + time.Minute}
		go func() {
			b, err := fetch(profClient, fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.pprof, cfg.seconds))
			profile <- fetched{b, err}
		}()
	}
	st0, err := readProcStat(pid)
	if err != nil {
		return nil, err
	}
	rss := startRSSSampler(pid)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)

	var (
		mu      sync.Mutex
		jobs    []*aesJob
		issued  int
		loadErr error
		wg      sync.WaitGroup
	)
	for range inflight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if loadErr != nil || (!time.Now().Before(deadline) && issued >= aesMinOps) {
					mu.Unlock()
					return
				}
				i := issued
				issued++
				mu.Unlock()
				j, err := runJob(ctx, client, d.api, i, deriveSeed(cfg.seed, 2, uint64(i)))
				mu.Lock()
				if err != nil {
					loadErr = err
				} else {
					jobs = append(jobs, j)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	m.rss = rss.finish()
	if loadErr != nil {
		return nil, loadErr
	}
	st1, err := readProcStat(pid)
	if err != nil {
		return nil, err
	}
	m.elapsed = end.Sub(start)
	m.cpu = st1.cpu - st0.cpu
	m.diskMB = dirMB(d.dataDir)

	sort.Slice(jobs, func(a, b int) bool { return jobs[a].index < jobs[b].index })
	var (
		right, all           int
		sim                  cpu.Counters
		queue, runs, clients []float64
	)
	for _, j := range jobs {
		m.latencies = append(m.latencies, j.serverLatency())
		// Accuracy covers the prefix's failed jobs too, so a change that
		// loses keys lowers it.
		if j.index < aesMinOps {
			if r := j.view.Result; r != nil {
				right += r.ByteSuccesses
				all += r.TotalBytes
			} else {
				all += aesJobBytes
			}
			if j.view.SimStats != nil {
				sim.Add(*j.view.SimStats)
			}
		}
		if !j.ok() {
			m.failed++
			fmt.Fprintf(os.Stderr, "aes-eval job %s (op %d): state %s %s\n", j.view.ID, j.index, j.view.State, j.view.Error)
			continue
		}
		if j.view.Started != nil {
			queue = append(queue, ms(j.view.Started.Sub(j.view.Submitted)))
			runs = append(runs, ms(j.view.Finished.Sub(*j.view.Started)))
		}
		clients = append(clients, ms(j.seen.Sub(j.sent)-j.serverLatency()))
	}
	m.accuracy = perOp(float64(right), all)
	if !cfg.trace {
		return m, nil
	}

	ops := len(jobs)
	l := m.layers
	addSimCounts(l, sim, min(ops, aesMinOps))
	l["service.queue_wait_ms"] = percentile(queue, 50)
	l["service.run_ms"] = percentile(runs, 50)
	l["service.client_ms"] = percentile(clients, 50)
	l["runtime.page_faults_per_op"] = perOp(float64(st1.faults-st0.faults), ops)

	after, err := snapshotDaemon(client, d, journal)
	if err != nil {
		return nil, err
	}
	prof := <-profile
	if prof.err != nil {
		return nil, fmt.Errorf("cpu profile: %w", prof.err)
	}
	// The profile covers the first cfg.seconds of the load; charge it to
	// the share of the ops that ran inside it.
	profOps := float64(ops) * float64(cfg.seconds) * float64(time.Second) / float64(m.elapsed)
	profFile := filepath.Join(cfg.work, "daemon.pprof")
	if err := os.WriteFile(profFile, prof.b, 0o644); err != nil {
		return nil, err
	}
	samples, err := readProfile(profFile)
	if err != nil {
		return nil, err
	}
	addProfile(l, samples, int(profOps+0.5))
	delta := func(k string) float64 { return after.metrics[k] - before.metrics[k] }
	const (
		storeOps = "pathfinderd_snapshot_store_ops_total"
		storeReq = "pathfinderd_warmcache_store_requests_total"
	)
	l["snapstore.loads_per_op"] = perOp(delta(storeOps+`{op="hit"}`)+delta(storeOps+`{op="miss"}`), ops)
	l["snapstore.saves_per_op"] = perOp(delta(storeOps+`{op="put"}`), ops)
	l["snapstore.hits_per_op"] = perOp(delta(storeReq+`{result="hit"}`), ops)
	l["snapstore.misses_per_op"] = perOp(delta(storeReq+`{result="miss"}`), ops)
	l["snapstore.mb"] = after.metrics["pathfinderd_snapshot_store_bytes"] / (1 << 20)
	// The standalone daemon exports no warm-cache hit counter; every warm
	// miss consults the store, so the store requests count the misses.
	l["harness.warm_misses_per_op"] = perOp(delta(storeReq+`{result="hit"}`)+delta(storeReq+`{result="miss"}`), ops)
	l["harness.shared_cells_per_op"] = perOp(delta("pathfinderd_sweep_planner_shared_cells_total"), ops)
	l["harness.prefetch_hits_per_op"] = perOp(delta(`pathfinderd_sweep_planner_prefetch_total{result="hit"}`), ops)
	l["service.journal_kb_per_op"] = perOp(float64(after.journal-before.journal)/1024, ops)
	l["runtime.alloc_mb_per_op"] = perOp(float64(after.heap["TotalAlloc"]-before.heap["TotalAlloc"])/(1<<20), ops)
	l["runtime.gc_cycles_per_op"] = perOp(float64(after.heap["NumGC"]-before.heap["NumGC"]), ops)
	l["runtime.gc_cpu_frac"] = after.gcCPU
	return m, nil
}

func fetch(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// daemonSnapshot is the daemon's exported counters at one instant.
type daemonSnapshot struct {
	metrics map[string]float64 // /metrics samples by name{labels}
	heap    map[string]uint64  // runtime.MemStats integer fields from the heap profile
	gcCPU   float64            // MemStats.GCCPUFraction: GC's share of CPU since start
	journal int64              // journal file size in bytes
}

func snapshotDaemon(c *http.Client, d *daemon, journal string) (daemonSnapshot, error) {
	var s daemonSnapshot
	b, err := fetch(c, d.api+"/metrics")
	if err != nil {
		return s, err
	}
	s.metrics = parseMetrics(string(b))
	if b, err = fetch(c, d.pprof+"/debug/pprof/heap?debug=1"); err != nil {
		return s, err
	}
	if s.heap, s.gcCPU, err = parseMemStats(string(b)); err != nil {
		return s, err
	}
	if fi, err := os.Stat(journal); err == nil {
		s.journal = fi.Size()
	}
	return s, nil
}

// parseMetrics reads Prometheus text exposition into name{labels} → value.
func parseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// parseMemStats reads the "# Name = value" runtime.MemStats block that the
// heap profile appends at debug=1.
func parseMemStats(text string) (map[string]uint64, float64, error) {
	out := make(map[string]uint64)
	var gcCPU float64
	for _, line := range strings.Split(text, "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok || !strings.HasPrefix(line, "# ") {
			continue
		}
		if k == "GCCPUFraction" {
			gcCPU, _ = strconv.ParseFloat(v, 64)
		} else if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			out[k] = n
		}
	}
	if _, ok := out["TotalAlloc"]; !ok {
		return nil, 0, errors.New("heap profile: no runtime.MemStats block")
	}
	return out, gcCPU, nil
}
