package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"pathfinder/internal/bpu"
	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
	"pathfinder/internal/harness"
	"pathfinder/internal/snapstore"
)

// grid-restart: set-up trains an AES grid sweep (Alder Lake and Skylake × six
// seeds, noise 0, 24 trials) into an empty snapshot store. Each op then
// simulates a process restart: it empties the in-process warm cache and
// reruns the sweep, so every phase-1 prefix is restored from disk, and each
// arch's six stored entries form a delta chain five links deep.
const (
	gridTrials    = 24
	gridSeeds     = 6
	gridSetupReps = 5
)

var gridArchs = []bpu.Config{bpu.AlderLake, bpu.Skylake}

// timedStore times the snapshot store's loads and saves at the harness seam.
// It forwards SaveDelta too: a store without it makes the harness fall back
// to full blobs, which would silently turn delta chains off.
type timedStore struct {
	st                 *snapstore.Store
	loads, saves       atomic.Int64
	loadTime, saveTime atomic.Int64 // nanoseconds
}

func (s *timedStore) Load(key string) (*cpu.Snapshot, *core.ExtendedResult, bool) {
	defer s.span(&s.loads, &s.loadTime, time.Now())
	return s.st.Load(key)
}

func (s *timedStore) Save(key string, snap *cpu.Snapshot, rec *core.ExtendedResult) {
	defer s.span(&s.saves, &s.saveTime, time.Now())
	s.st.Save(key, snap, rec)
}

func (s *timedStore) SaveDelta(key string, snap *cpu.Snapshot, rec *core.ExtendedResult, baseKey string) {
	defer s.span(&s.saves, &s.saveTime, time.Now())
	s.st.SaveDelta(key, snap, rec, baseKey)
}

func (s *timedStore) Stats() (hits, misses, puts, evictions uint64, bytes int64, entries int) {
	return s.st.Stats()
}

func (s *timedStore) span(n, total *atomic.Int64, start time.Time) {
	n.Add(1)
	total.Add(int64(time.Since(start)))
}

func runGridRestart(ctx context.Context, cfg config) (*measurement, error) {
	m := &measurement{layers: map[string]float64{}}
	seeds := make([]int64, gridSeeds)
	for j := range seeds {
		seeds[j] = deriveSeed(cfg.seed, 1, uint64(j))
	}
	sweep := func() (*harness.AESGridReport, []byte, error) {
		rep, err := harness.AESGridSweep(ctx, harness.Options{}, gridTrials, gridArchs, seeds, []float64{0})
		if err != nil {
			return nil, nil, err
		}
		b, err := json.Marshal(rep)
		return rep, b, err
	}

	// Set-up: prime a fresh store several times and keep the last; the
	// median priming time is setup_s.
	var (
		dir    string
		st     *snapstore.Store
		timed  *timedStore
		prime  []byte
		report *harness.AESGridReport
	)
	defer harness.SetSnapStore(nil)
	for r := range gridSetupReps {
		t := time.Now()
		dir = filepath.Join(cfg.work, fmt.Sprintf("store-%d", r))
		var err error
		if st, err = snapstore.Open(dir, 0); err != nil {
			return nil, err
		}
		// Spans are a traced run's business; an untraced run installs the
		// store exactly as the daemon does.
		if cfg.trace {
			timed = &timedStore{st: st}
			harness.SetSnapStore(timed)
		} else {
			harness.SetSnapStore(st)
		}
		harness.ResetWarmCache()
		if report, prime, err = sweep(); err != nil {
			return nil, fmt.Errorf("priming: %w", err)
		}
		m.setup = append(m.setup, time.Since(t))
	}
	for _, p := range report.Points {
		m.accuracy += p.Result.SuccessRate / float64(len(report.Points))
	}

	var loads, loadTime, saves, saveTime int64
	if timed != nil {
		loads, loadTime, saves, saveTime = timed.loads.Load(), timed.loadTime.Load(), timed.saves.Load(), timed.saveTime.Load()
	}
	_, _, shared0, pf0, _ := harness.PlannerStats()
	sh0, sm0 := harness.SnapStoreStats()
	var warmHits, warmMisses uint64

	load, err := startInprocLoad(cfg)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for time.Now().Before(deadline) {
		harness.ResetWarmCache() // the restart: only the store survives
		load.beginOp()
		t := time.Now()
		_, b, err := sweep()
		m.latencies = append(m.latencies, time.Since(t))
		load.endOp()
		h, mi := harness.WarmCacheStats()
		warmHits += h
		warmMisses += mi
		if err != nil || !bytes.Equal(b, prime) {
			m.failed++
		}
	}
	if err := load.finish(m); err != nil {
		return nil, err
	}
	m.diskMB = dirMB(dir)
	if !cfg.trace {
		return m, nil
	}

	ops := len(m.latencies)
	l := m.layers
	l["snapstore.loads_per_op"] = perOp(float64(timed.loads.Load()-loads), ops)
	l["snapstore.load_ms_per_op"] = perOp(ms(time.Duration(timed.loadTime.Load()-loadTime)), ops)
	l["snapstore.saves_per_op"] = perOp(float64(timed.saves.Load()-saves), ops)
	l["snapstore.save_ms_per_op"] = perOp(ms(time.Duration(timed.saveTime.Load()-saveTime)), ops)
	_, _, shared, pf, _ := harness.PlannerStats()
	sh, sm := harness.SnapStoreStats()
	l["harness.warm_hits_per_op"] = perOp(float64(warmHits), ops)
	l["harness.warm_misses_per_op"] = perOp(float64(warmMisses), ops)
	l["harness.shared_cells_per_op"] = perOp(float64(shared-shared0), ops)
	l["harness.prefetch_hits_per_op"] = perOp(float64(pf-pf0), ops)
	l["snapstore.hits_per_op"] = perOp(float64(sh-sh0), ops)
	l["snapstore.misses_per_op"] = perOp(float64(sm-sm0), ops)
	_, _, _, _, storeBytes, _ := st.Stats()
	l["snapstore.mb"] = float64(storeBytes) / (1 << 20)
	// Every passing op's report is byte-identical to the priming report, so
	// its simulator counters are the priming report's.
	addSimCounts(l, report.Stats, 1)
	return m, nil
}
