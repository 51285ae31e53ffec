// Package harness drives the paper's evaluation: one function per table or
// figure, returning structured, JSON-serializable results plus aggregated
// simulator counters. The bench suite at the repository root, the cmd/
// binaries and the pathfinderd job service are thin wrappers around these
// drivers.
//
// Every driver takes a context.Context — long-running experiment loops
// check it between iterations and return ctx.Err() on cancellation — and an
// Options value selecting the modeled microarchitecture and the base seed.
// The zero Options reproduces each driver's historical behaviour (Alder
// Lake, the per-driver default seed), so recorded golden results don't move.
//
// The drivers whose iterations are independent (ReadPHRRandomEval,
// ExtendedReadEval, Fig6PathfinderAES, Fig7ImageRecovery, AESLeakEval) run
// them through one trial runner (runTrials), which shards them across a
// bounded worker pool, one trial at a time, and owns their retry policy.
// Every trial runs on a pooled machine recycled to a seed derived from the
// trial index alone, so a report is a pure function of (Options,
// arguments): byte-identical at every worker count, including the
// sequential path the determinism tests pin the pool against.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"pathfinder/internal/aes"
	"pathfinder/internal/attack"
	"pathfinder/internal/bpu"
	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
	"pathfinder/internal/faultinject"
	"pathfinder/internal/isa"
	"pathfinder/internal/jpeg"
	"pathfinder/internal/media"
	"pathfinder/internal/pathfinder"
	"pathfinder/internal/phr"
	"pathfinder/internal/refmodel"
	"pathfinder/internal/victim"
)

// Historical per-driver seeds, applied when Options.Seed is zero. They match
// the constants the drivers hard-coded (Obs2, Fig4) or the default the CLIs
// and benches passed before seeds became caller-supplied.
const (
	DefaultObs2Seed    = 100
	DefaultFig4Seed    = 7
	DefaultReadPHRSeed = 1
	DefaultFig5Seed    = 13
	DefaultFig6Seed    = 17
	DefaultFig7Seed    = 29
	DefaultAESSeed     = 31
)

// Options configure a driver run. The zero value preserves historical
// behaviour: the Alder Lake microarchitecture and the driver's default seed.
type Options struct {
	Arch bpu.Config // modeled microarchitecture; zero value means Alder Lake
	Seed int64      // base seed; 0 selects the driver's historical default

	// Faults arms the deterministic fault-injection layer (package
	// faultinject) on the machines the driver builds. Injector seeds derive
	// from the same index-derived machine seeds as everything else, so
	// fault-injected reports keep the parallelism-invariance contract. A
	// nil or disabled profile changes nothing. AESLeakEval exempts its
	// primary machine — phase-1 control-flow recovery models the attacker's
	// offline profiling step — and faults only the per-trial machines.
	Faults *faultinject.Profile

	// The test hooks below change no report byte; only this package's
	// tests set them, to compare reports across settings.

	// parallelism bounds the worker pool of the sharded drivers: 0 selects
	// GOMAXPROCS, 1 forces the exact sequential path.
	parallelism int

	// refModel backs every machine the driver builds with the naive
	// internal/refmodel oracle instead of the production bpu.CBP, for
	// end-to-end differential validation. Slow — the oracle recomputes
	// every fold bit by bit.
	refModel bool

	// noWarmCache turns the warm-state cache (warmcache.go) off, to compare
	// cache-on reports against a cache-off baseline.
	noWarmCache bool
}

// workers resolves the worker-pool size for the sharded drivers.
func (o Options) workers() int {
	if o.parallelism > 0 {
		return o.parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// arch resolves the modeled microarchitecture: the zero value means Alder
// Lake, as it does for cpu.New.
func (o Options) arch() bpu.Config {
	if o.Arch.PHRSize == 0 {
		return bpu.AlderLake
	}
	return o.Arch
}

// seed resolves the base seed against the driver's historical default.
func (o Options) seed(def int64) int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return def
}

// cpu builds machine options for one run at the given derived seed.
func (o Options) cpu(seed int64) cpu.Options {
	co := cpu.Options{Arch: o.Arch, Seed: seed, Faults: o.Faults}
	if o.refModel {
		co.NewPredictor = refmodel.NewPredictor
	}
	return co
}

// retryReseed spaces the machine seeds of successive retry attempts for the
// drivers that gained retries in the robustness pass; Fig7 keeps its
// original 1000-stride schedule so its recorded goldens stay valid.
const retryReseed = 1_000_003

// Table1 renders the target-processor table.
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-18s %-10s %-14s\n", "Machine", "Model", "PHR size", "Table hists")
	for i, c := range bpu.Configs() {
		fmt.Fprintf(&b, "machine %-4d %-18s %-10d %v\n", i+1, c.Model, c.PHRSize, c.TableHists)
	}
	return b.String()
}

// Obs2Result is one point of the counter-width experiment.
type Obs2Result struct {
	M                   int     `json:"m"`
	MispredictPerPeriod float64 `json:"mispredicts_per_period"`
}

// Obs2Report is the full counter-width experiment outcome.
type Obs2Report struct {
	Points      []Obs2Result `json:"points"`
	CounterBits int          `json:"counter_bits"`
	Stats       cpu.Counters `json:"stats"`
}

// Obs2CounterWidth reproduces Observation 2: a branch with the repeating
// pattern T^m N^m at a fixed all-zero PHR is executed through the aliased
// harness; the per-period misprediction count plateaus once m exceeds the
// counter's saturation range, at m = 2^n - 1 for n-bit counters. The machine
// for pattern length m is seeded with base+m (base defaults to 100).
func Obs2CounterWidth(ctx context.Context, opts Options, maxM int) (*Obs2Report, error) {
	rep := &Obs2Report{}
	base := opts.seed(DefaultObs2Seed)
	plateauAt := -1
	var prev float64 = -1
	for m := 1; m <= maxM; m++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mach := cpu.New(opts.cpu(base + int64(m)))
		reg := phr.New(mach.Arch().PHRSize)
		const periods = 24
		var outcomes []bool
		for p := 0; p < periods; p++ {
			for i := 0; i < m; i++ {
				outcomes = append(outcomes, true)
			}
			for i := 0; i < m; i++ {
				outcomes = append(outcomes, false)
			}
		}
		mis, err := core.RunAliased(mach, 0x00ab_3c40, reg, outcomes)
		if err != nil {
			return nil, err
		}
		// Skip the first warm-up periods.
		warm := 4
		machWarm := cpu.New(opts.cpu(base + int64(m)))
		misWarm, err := core.RunAliased(machWarm, 0x00ab_3c40, reg, outcomes[:2*m*warm])
		if err != nil {
			return nil, err
		}
		rep.Stats.Add(mach.Stats())
		rep.Stats.Add(machWarm.Stats())
		rate := float64(mis-misWarm) / float64(periods-warm)
		rep.Points = append(rep.Points, Obs2Result{M: m, MispredictPerPeriod: rate})
		if prev >= 0 && rate == prev && plateauAt < 0 {
			plateauAt = m - 1
		}
		if rate != prev {
			plateauAt = -1
		}
		prev = rate
	}
	if plateauAt > 0 {
		for v := plateauAt + 1; v > 1; v >>= 1 {
			rep.CounterBits++
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// Fig4Result holds the four candidate misprediction rates for one doublet.
type Fig4Result struct {
	Doublet int         `json:"doublet"`
	Rates   [4]float64  `json:"rates"`
	True    phr.Doublet `json:"true"`
}

// Fig4Report is the full Figure 4 candidate-rate matrix.
type Fig4Report struct {
	Rows  []Fig4Result `json:"rows"`
	Stats cpu.Counters `json:"stats"`
}

// Fig4ReadDoublet reproduces Figure 4: the train/test misprediction rates
// for all four candidate values of the first few PHR doublets of a victim.
func Fig4ReadDoublet(ctx context.Context, opts Options, doublets int) (*Fig4Report, error) {
	seed := opts.seed(DefaultFig4Seed)
	m := cpu.New(opts.cpu(seed))
	pattern := victim.RandomPattern(24, seed)
	v := victim.PatternedLoop(24, pattern)
	truth, err := core.CaptureVictimPHR(m, v)
	if err != nil {
		return nil, err
	}
	rep := &Fig4Report{}
	known := phr.New(m.Arch().PHRSize)
	for k := 0; k < doublets; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rates, err := core.DoubletCandidateRates(m, v, known, k, 48)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, Fig4Result{Doublet: k, Rates: rates, True: truth.Doublet(k)})
		known.SetDoublet(k, truth.Doublet(k))
	}
	rep.Stats.Add(m.Stats())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// ReadPHRReport is the §4.2 random read/write round-trip outcome. Failures
// counts trials whose every retry attempt errored; they are excluded from
// Successes but keep the sweep alive (partial-result degradation).
type ReadPHRReport struct {
	Trials    int          `json:"trials"`
	Doublets  int          `json:"doublets"`
	Successes int          `json:"successes"`
	Failures  int          `json:"failures,omitempty"`
	Stats     cpu.Counters `json:"stats"`
}

// ReadPHRRandomEval reproduces the §4.2 evaluation: write random PHR values
// through a PHR-writing victim and read them back, reporting successes.
// Trials are independent — each runs on its own machine seeded by the trial
// index — and shard across the options' worker pool; per-trial outcomes
// merge in index order, so the report does not depend on the pool size. A
// trial whose capture or read errors is retried on a reseeded machine under
// the zero Retry policy (three immediate attempts); exhausted trials count
// as Failures.
func ReadPHRRandomEval(ctx context.Context, opts Options, trials, doublets int) (*ReadPHRReport, error) {
	seed := opts.seed(DefaultReadPHRSeed)
	oks := make([]bool, trials)
	errs, stats, err := runTrials(ctx, opts, trials, func(mach machFunc, t, attempt int) error {
		m := mach(opts.cpu(seed+int64(t)+retryReseed*int64(attempt)), nil)
		// The written value is the trial's identity: fixed across attempts,
		// only the machine seed is redrawn.
		val := randomReg(m.Arch().PHRSize, seed*31+int64(t))
		v := phrWriterVictim(val)
		truth, err := core.CaptureVictimPHR(m, v)
		if err != nil {
			return err
		}
		got, err := core.ReadPHR(m, v, core.ReadPHROptions{MaxDoublets: doublets})
		if err != nil {
			return err
		}
		oks[t] = true
		for k := 0; k < doublets; k++ {
			if got.Doublet(k) != truth.Doublet(k) {
				oks[t] = false
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &ReadPHRReport{Trials: trials, Doublets: doublets, Stats: stats}
	for t := 0; t < trials; t++ {
		if oks[t] {
			rep.Successes++
		}
		if errs[t] != nil {
			rep.Failures++
		}
	}
	return rep, nil
}

// ExtendedEvalResult is one §5 evaluation case. Err records a case whose
// every recovery attempt failed; its metrics are then zero and the sweep
// continues (partial-result degradation).
type ExtendedEvalResult struct {
	TakenBranches int    `json:"taken_branches"`
	Exact         bool   `json:"exact"`
	Err           string `json:"err,omitempty"`
}

// ExtendedReport is the full §5 evaluation outcome.
type ExtendedReport struct {
	Cases []ExtendedEvalResult `json:"cases"`
	Stats cpu.Counters         `json:"stats"`
}

// ExtendedReadEval reproduces the §5 evaluation: victims with varying
// numbers of taken branches (within and beyond the PHR window) have their
// entire control-flow history recovered and compared against ground truth.
// Cases are independent and shard across the options' worker pool like the
// other sharded drivers' trials. A case whose recovery errors is retried on
// a reseeded machine under the zero Retry policy (three immediate
// attempts); an exhausted case records its error and the sweep continues.
func ExtendedReadEval(ctx context.Context, opts Options, trips []int) (*ExtendedReport, error) {
	seed := opts.seed(DefaultFig5Seed)
	cases := make([]ExtendedEvalResult, len(trips))
	traced := make([]cpu.Counters, len(trips)) // the ground-truth trace machines
	errs, stats, err := runTrials(ctx, opts, len(trips), func(mach machFunc, i, attempt int) error {
		n := trips[i]
		aseed := seed + int64(i) + retryReseed*int64(attempt)
		m := mach(opts.cpu(aseed), nil)
		// The victim pattern is the case's identity: fixed across
		// attempts, only the machine seed is redrawn.
		v := victim.PatternedLoop(n, victim.RandomPattern(n, seed+int64(7*i)))
		rec, err := core.ExtendedReadPHR(m, v, core.ExtendedOptions{})
		if err != nil {
			return fmt.Errorf("harness: trips=%d: %w", n, err)
		}
		truth, tstats, err := traceCapture(opts, aseed, v)
		if err != nil {
			return err
		}
		traced[i].Add(tstats)
		exact := rec.Path.Complete && len(truth) == countTaken(rec.Path)
		if exact {
			j := 0
			for _, s := range rec.Path.Steps {
				if !s.Taken {
					continue
				}
				if s.Addr != truth[j].Addr || s.Target != truth[j].Target {
					exact = false
					break
				}
				j++
			}
		}
		cases[i] = ExtendedEvalResult{TakenBranches: len(truth), Exact: exact}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &ExtendedReport{Stats: stats}
	for i, res := range cases {
		if errs[i] != nil {
			res = ExtendedEvalResult{Err: errs[i].Error()}
		}
		rep.Cases = append(rep.Cases, res)
		rep.Stats.Add(traced[i])
	}
	return rep, nil
}

// traceCapture ground-truths the capture run's taken branches (minus the
// clear chain) on a fresh machine of its own, returning them with that
// machine's counters.
func traceCapture(opts Options, seed int64, v core.Victim) ([]pathfinder.Step, cpu.Counters, error) {
	m := cpu.New(opts.cpu(seed))
	var steps []pathfinder.Step
	m.TraceTaken = func(pc, tgt uint64) {
		steps = append(steps, pathfinder.Step{Addr: pc, Target: tgt, Taken: true})
	}
	if v.Setup != nil {
		v.Setup(m)
	}
	prog, err := core.BuildCaptureProgram(m, v)
	if err != nil {
		return nil, cpu.Counters{}, err
	}
	if err := m.Run(prog, "cap_main"); err != nil {
		return nil, cpu.Counters{}, err
	}
	return steps[m.Arch().PHRSize:], m.Stats(), nil
}

// phrWriterVictim is the §4.2 evaluation victim: calling it runs a
// Write_PHR chain leaving a predetermined register value.
func phrWriterVictim(value *phr.Reg) core.Victim {
	return core.Victim{
		Entry: "hw_victim",
		Emit: func(a *isa.Assembler) {
			a.Label("hw_victim")
			a.Nop()
			core.EmitWritePHR(a, "hw", value, "hw_done")
			a.Align(0x1_0000, core.WriteContOffset(value))
			a.Label("hw_done")
			a.Ret()
		},
	}
}

func countTaken(p pathfinder.Path) int {
	n := 0
	for _, s := range p.Steps {
		if s.Taken {
			n++
		}
	}
	return n
}

// Fig6Result is the Pathfinder output for the looped AES victim.
type Fig6Result struct {
	LoopIterations int          `json:"loop_iterations"`
	BlockSequence  []int        `json:"block_sequence"`
	CFGDump        string       `json:"cfg_dump"`
	Stats          cpu.Counters `json:"stats"`
}

// Fig6PathfinderAES reproduces Figure 6: recover the AES victim's runtime
// CFG and loop trip count from its PHR. The recovery is one trial of the
// shared runner, so a failed attempt is retried on a reseeded machine under
// the zero Retry policy; the result is a single unit of work, so exhausting
// the budget returns the last error rather than a degraded report.
func Fig6PathfinderAES(ctx context.Context, opts Options) (*Fig6Result, error) {
	seed := opts.seed(DefaultFig6Seed)
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i*17 + 3)
	}
	var res Fig6Result
	errs, stats, err := runTrials(ctx, opts, 1, func(mach machFunc, _, attempt int) error {
		m := mach(opts.cpu(seed+retryReseed*int64(attempt)), nil)
		a, err := attack.NewAESAttack(m, key)
		if err != nil {
			return err
		}
		if err := a.RecoverControlFlow(); err != nil {
			return err
		}
		cfg, err := pathfinder.Build(a.Rec.CaptureProgram)
		if err != nil {
			return err
		}
		res = Fig6Result{
			LoopIterations: a.LoopIterations(),
			BlockSequence:  a.Rec.Path.BlockSequence(cfg, a.Rec.Entry, a.Rec.Final),
			CFGDump:        cfg.Dump(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if errs[0] != nil {
		return nil, errs[0]
	}
	res.Stats = stats
	return &res, nil
}

// Fig7Result is one recovered image of the §8 evaluation. Err is set when
// every recovery attempt for the image failed; its metrics are then zero and
// the sweep continues with the remaining images (partial recovery).
type Fig7Result struct {
	Name            string      `json:"name"`
	TakenBranches   int         `json:"taken_branches"`
	FlagAccuracy    float64     `json:"flag_accuracy"` // fraction of constant-row/col flags recovered correctly
	EdgeCorrelation float64     `json:"edge_correlation"`
	Recovered       *media.Gray `json:"-"`
	Err             string      `json:"err,omitempty"`
}

// Fig7Report is the full §8 evaluation outcome.
type Fig7Report struct {
	Images []Fig7Result `json:"images"`
	Stats  cpu.Counters `json:"stats"`
}

// Fig7ImageRecovery reproduces the §8 evaluation over the synthetic secret
// image set at the given edge size and JPEG quality. Images shard across the
// options' worker pool, each on machines seeded by the image index. An image
// whose extended read fails is retried on a reseeded machine under the
// zero Retry policy (predictor interference occasionally leaves a
// doublet below the read threshold — the §4.2 read is itself probabilistic
// — and a fresh machine seed redraws every training coin in the capture);
// if every attempt fails the sweep records the error in that image's result
// and continues instead of aborting. Only the recovery is retried: images
// are encoded before the trials run and scored afterwards, and an encode or
// score error aborts the call.
func Fig7ImageRecovery(ctx context.Context, opts Options, size, quality, maxImages int) (*Fig7Report, error) {
	seed := opts.seed(DefaultFig7Seed)
	set := media.TestSet(size)
	if maxImages > 0 && maxImages < len(set) {
		set = set[:maxImages]
	}
	encs := make([][]byte, len(set))
	blocks := make([][]jpeg.Block, len(set))
	for i, entry := range set {
		enc, err := jpeg.Encode(entry.Image.Pix, entry.Image.W, entry.Image.H, quality)
		if err != nil {
			return nil, err
		}
		if _, blocks[i], err = jpeg.DecodeBlocks(enc); err != nil {
			return nil, err
		}
		encs[i] = enc
	}
	recs := make([]*attack.ImageResult, len(set))
	errs, stats, err := runTrials(ctx, opts, len(set), func(mach machFunc, i, attempt int) error {
		// The 1000-stride attempt reseed predates the shared Retry policy;
		// it is kept so the recorded goldens stay valid.
		ir := &attack.ImageRecovery{M: mach(opts.cpu(seed+int64(i)+1000*int64(attempt)), nil)}
		var err error
		recs[i], err = ir.Recover(encs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := &Fig7Report{Images: make([]Fig7Result, len(set)), Stats: stats}
	for i, entry := range set {
		if errs[i] != nil {
			rep.Images[i] = Fig7Result{Name: entry.Name, Err: fmt.Sprintf("harness: image %s: %v", entry.Name, errs[i])}
			continue
		}
		res := recs[i]
		wantCols, wantRows := attack.GroundTruthFlags(blocks[i])
		correct, total := 0, 0
		for b := range blocks[i] {
			for k := 0; k < 8; k++ {
				if res.ConstCols[b][k] == wantCols[b][k] {
					correct++
				}
				if res.ConstRows[b][k] == wantRows[b][k] {
					correct++
				}
				total += 2
			}
		}
		if err := res.Score(entry.Image); err != nil {
			return nil, err
		}
		rep.Images[i] = Fig7Result{
			Name:            entry.Name,
			TakenBranches:   res.TakenBranches,
			FlagAccuracy:    float64(correct) / float64(total),
			EdgeCorrelation: res.EdgeCorrelation,
			Recovered:       res.Recovered,
		}
	}
	return rep, nil
}

// AESEvalResult is the §9 evaluation outcome. FailedTrials counts trials
// whose every retry attempt errored; their 16 bytes still count toward
// TotalBytes (and therefore degrade SuccessRate), matching how a real
// attacker's failed oracle queries waste measurement budget.
type AESEvalResult struct {
	Trials        int          `json:"trials"`
	ByteSuccesses int          `json:"byte_successes"`
	TotalBytes    int          `json:"total_bytes"`
	SuccessRate   float64      `json:"success_rate"`
	FailedTrials  int          `json:"failed_trials,omitempty"`
	KeyRecovered  bool         `json:"key_recovered"`
	Stats         cpu.Counters `json:"stats"`
}

// aesEvalKey is the fixed AES key of the §9 evaluation (the FIPS-197
// appendix key). Its hash content-addresses the phase-1 checkpoint, so the
// sweeps can compute a cell's prefix key without building a machine.
var aesEvalKey = []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
	0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}

// aesPhase1Key is the phase-1 checkpoint address AESLeakEval will compute
// under for these options, resolved exactly as the driver resolves them
// (zero arch means Alder Lake, zero seed the historical default). The key
// deliberately omits the fault profile — the primary machine is
// fault-exempt — so a noise-intensity ladder shares one recovery.
func aesPhase1Key(opts Options, noise float64) WarmStateKey {
	cfg := opts.arch()
	return WarmStateKey{
		Kind:    "aes-phase1",
		Arch:    cfg.Name,
		PHRSize: cfg.PHRSize,
		Prog:    hashBytes(aesEvalKey),
		Seed:    opts.seed(DefaultAESSeed),
		Noise:   noise,
	}
}

// AESLeakEval reproduces the §9 evaluation: over `trials` oracle queries at
// random early-exit iterations, compare the stolen reduced-round ciphertext
// bytes against ground truth; then recover the full key from skip-loop
// leaks. Noise keeps the success rate realistically below 100%.
//
// Phase 1 (control-flow recovery) and the final key recovery run on the
// primary machine, which the call takes from the machine pool; the
// per-trial oracle queries run on forked attacks, each on a pooled machine
// recycled to a seed derived from the trial index and warmed with two
// unpoisoned capture runs (or restored from a shared post-warm snapshot,
// below), and shard across the options' worker pool.
// Plaintexts and early-exit counts for every trial are drawn from a single
// stream before sharding, so the report is byte-identical at every worker
// count.
func AESLeakEval(ctx context.Context, opts Options, trials int, noise float64) (*AESEvalResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seed := opts.seed(DefaultAESSeed)
	co := opts.cpu(seed)
	co.Noise = noise
	// The primary machine models the attacker's offline profiling step
	// (phase-1 control-flow recovery and final key recovery): it is exempt
	// from fault injection so a noise profile degrades the per-trial
	// measurements, not the attacker's own preparation.
	co.Faults = nil
	primary := newPooledMachine(opts)
	defer primary.release()
	m := primary.take(co, nil)
	key := append([]byte(nil), aesEvalKey...)
	a, err := attack.NewAESAttack(m, key)
	if err != nil {
		return nil, err
	}
	useWarm := opts.warmOn()
	if useWarm {
		// Phase-1 checkpoint: the primary machine's full configuration is
		// (arch, seed, noise, key); its fault profile is always nil (see
		// above), so the key deliberately omits Options.Faults and a noise
		// sweep's points all share one recovery. Concurrent callers
		// singleflight on the computation; later callers restore the
		// snapshot onto their own fresh machine and adopt the recovery —
		// bit-exact, because the snapshot captures every PRNG stream and
		// all predictor/cache state, and the driver rewrites every memory
		// value it later reads (plaintexts, probe flushes, PHT writes).
		// The sweeps prefetch under the same aesPhase1Key.
		k := aesPhase1Key(opts, noise).internal()
		e, werr := warm.do(k, func() (*warmEntry, error) {
			if err := a.RecoverControlFlow(); err != nil {
				return nil, err
			}
			return &warmEntry{snap: m.Snapshot(), rec: a.Rec}, nil
		})
		if werr != nil {
			return nil, werr
		}
		if a.Rec == nil { // cache hit: this machine did not run phase 1
			m.RestoreFrom(e.snap)
			if err := a.AdoptRecovery(e.rec); err != nil {
				return nil, err
			}
		}
	} else if err := a.RecoverControlFlow(); err != nil {
		return nil, err
	}
	res := &AESEvalResult{Trials: trials}
	rng := newRng(uint64(seed) * 977)
	pts := make([]aes.Block, trials)
	ns := make([]int, trials)
	for t := 0; t < trials; t++ {
		for i := range pts[t] {
			pts[t][i] = byte(rng.next())
		}
		ns[t] = int(rng.next() % 9) // iterations 0..8
	}
	// Per-trial warm sharing: after Fork+Warm(2) a trial machine's captured
	// state is provably seed-independent when nothing draws from a PRNG on
	// the way there — no transient-collapse noise (Noise == 0; the victim
	// has no RAND and collapse changes transient cache footprints), no
	// armed fault injector. One trial donates its post-warm snapshot and
	// the rest restore it, then Reseed to their own trial seed — which
	// reproduces a fresh machine's PRNG state exactly, because the fresh
	// path made zero draws. Outside that gate every trial warms itself.
	shareWarm := useWarm && noise == 0 && (opts.Faults == nil || !opts.Faults.Enabled())
	var warmK warmKey
	if shareWarm {
		warmK = warmKey{
			kind:    "aes-warm",
			arch:    m.Arch().Name,
			phrSize: m.Arch().PHRSize,
			prog:    a.Rec.CaptureProgram.Hash(),
		}
	}
	successes := make([]int, trials)
	errs, stats, err := runTrials(ctx, opts, trials, func(mach machFunc, t, attempt int) error {
		tco := opts.cpu(seed + 7919*int64(t+1) + retryReseed*int64(attempt))
		tco.Noise = noise
		// getOrFetch consults the snapshot store and the cluster fetch hook
		// on a local miss, so a worker whose peer already trained this warm
		// state restores the fetched snapshot instead of re-warming.
		var donor *cpu.Snapshot
		if shareWarm {
			if e, ok := warm.getOrFetch(warmK); ok {
				donor = e.snap
			}
		}
		tm := mach(tco, donor)
		ta, err := a.Fork(tm)
		if err != nil {
			return err
		}
		if donor != nil {
			tm.Reseed(tco.Seed)
		} else {
			if err := ta.Warm(2); err != nil {
				return err
			}
			if shareWarm {
				warm.putIfAbsent(warmK, &warmEntry{snap: tm.Snapshot()})
			}
		}
		leak, ok, err := ta.LeakReducedRound(pts[t], ns[t])
		if err != nil {
			return err
		}
		want, err := ta.GroundTruthReduced(pts[t], ns[t])
		if err != nil {
			return err
		}
		n := 0
		for i := 0; i < 16; i++ {
			if ok[i] && leak[i] == want[i] {
				n++
			}
		}
		successes[t] = n
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	for t := 0; t < trials; t++ {
		res.TotalBytes += 16
		res.ByteSuccesses += successes[t]
		if errs[t] != nil {
			res.FailedTrials++
		}
	}
	res.SuccessRate = float64(res.ByteSuccesses) / float64(res.TotalBytes)
	recKey, _, err := a.RecoverKey(64)
	if err == nil && recKey == aes.Block(key) {
		res.KeyRecovered = true
	}
	res.Stats.Add(m.Stats())
	return res, nil
}

// NoisePoint is one intensity step of the AES noise sweep: the PHR
// pollution probability in force and the full §9 evaluation under it.
type NoisePoint struct {
	PHRPollutionProb float64       `json:"phr_pollution_prob"`
	Result           AESEvalResult `json:"result"`
}

// NoiseSweepReport is the AESNoiseSweep outcome. Profile records the base
// fault profile the sweep perturbed (everything except the swept pollution
// probability); Points are ordered by rising intensity.
type NoiseSweepReport struct {
	Profile faultinject.Profile `json:"profile"`
	Points  []NoisePoint        `json:"points"`
	Stats   cpu.Counters        `json:"stats"`
}

// DefaultNoiseIntensities is the standard PHR-pollution sweep: from no
// pollution through context-switch storms heavy enough to visibly erode the
// §9 byte-theft rate. The values are per-taken-branch hazard rates — a
// capture run retires a few hundred taken branches, so 1e-3 already means
// a burst lands inside most runs. Spacing is wide (≈4× steps) so the
// recorded degradation stays monotonic despite per-point sampling noise.
func DefaultNoiseIntensities() []float64 {
	return []float64{0, 0.0002, 0.001, 0.004, 0.02}
}

// AESNoiseSweep runs the §9 AES evaluation once per PHR-pollution intensity,
// holding every other injector of the base profile (Options.Faults, or
// faultinject.Default when unset) constant. It is the robustness
// counterpart of AESLeakEval: the paper reports 98.43% byte accuracy under
// its noise model, and this sweep records how that accuracy decays as
// context-switch pressure on the path history rises. Each point inherits
// the options' seeds and the runner's retry policy, so the report is
// byte-identical at every worker count.
func AESNoiseSweep(ctx context.Context, opts Options, trials int, noise float64, intensities []float64) (*NoiseSweepReport, error) {
	base := faultinject.Default()
	if opts.Faults != nil {
		base = *opts.Faults
	}
	if len(intensities) == 0 {
		intensities = DefaultNoiseIntensities()
	}
	rep := &NoiseSweepReport{Profile: base}
	// Every point shares one phase-1 prefix — the checkpoint key omits the
	// fault profile — so the whole ladder runs behind one recovery (trained
	// once, or restored from the persistent store). Each cell writes its
	// own slot; the report is assembled in intensity order.
	var prefix WarmStateKey
	if opts.warmOn() {
		prefix = aesPhase1Key(opts, noise)
	}
	results := make([]AESEvalResult, len(intensities))
	cells := make([]SweepCell, len(intensities))
	for i, p := range intensities {
		prof := base.WithPollution(p, base.PHRPollutionBurst)
		o := opts
		o.Faults = &prof
		i := i
		cells[i] = SweepCell{
			Label:  fmt.Sprintf("aes-noise[p=%g]", p),
			Prefix: prefix,
			Run: func(ctx context.Context) error {
				res, err := AESLeakEval(ctx, o, trials, noise)
				if err != nil {
					return err
				}
				results[i] = *res
				return nil
			},
		}
	}
	if err := RunSweep(ctx, cells); err != nil {
		return nil, err
	}
	for i, p := range intensities {
		rep.Points = append(rep.Points, NoisePoint{PHRPollutionProb: p, Result: results[i]})
		rep.Stats.Add(results[i].Stats)
	}
	return rep, nil
}

// AESGridPoint is one cell of the arch × seed × noise grid sweep.
type AESGridPoint struct {
	Arch   string        `json:"arch"`
	Seed   int64         `json:"seed"`
	Noise  float64       `json:"noise"`
	Result AESEvalResult `json:"result"`
}

// AESGridReport is the AESGridSweep outcome, points in arch-major grid
// order.
type AESGridReport struct {
	Points []AESGridPoint `json:"points"`
	Stats  cpu.Counters   `json:"stats"`
}

// AESGridSweep runs the §9 AES evaluation over a grid of
// microarchitectures, base seeds and noise levels — the batch shape the
// robustness studies sweep. Cells execute in grid order through RunSweep:
// each cell's phase-1 checkpoint is trained once (or restored from the
// persistent snapshot store, which is what makes a repeated sweep in a
// fresh process fast), and the next cell's checkpoint is prefetched from
// the store while the current cell executes. Empty dimension slices default
// to the options' own arch and seed and noise 0. Each cell writes its own
// grid slot and the report is assembled in grid order, so the report is a
// pure function of (Options, arguments): byte-identical with the warm cache
// or the store on or off, at every worker count.
func AESGridSweep(ctx context.Context, opts Options, trials int, archs []bpu.Config, seeds []int64, noises []float64) (*AESGridReport, error) {
	if len(archs) == 0 {
		archs = []bpu.Config{opts.Arch}
	}
	if len(seeds) == 0 {
		seeds = []int64{opts.Seed}
	}
	if len(noises) == 0 {
		noises = []float64{0}
	}
	n := len(archs) * len(seeds) * len(noises)
	results := make([]AESEvalResult, n)
	points := make([]AESGridPoint, n)
	cells := make([]SweepCell, 0, n)
	i := 0
	for _, cfg := range archs {
		for _, s := range seeds {
			for _, nz := range noises {
				o := opts
				o.Arch = cfg
				o.Seed = s
				key := aesPhase1Key(o, nz)
				ci := i
				points[ci] = AESGridPoint{Arch: key.Arch, Seed: key.Seed, Noise: nz}
				cell := SweepCell{
					Label: fmt.Sprintf("aes[%s seed=%d noise=%g]", key.Arch, key.Seed, nz),
					Run: func(ctx context.Context) error {
						res, err := AESLeakEval(ctx, o, trials, nz)
						if err != nil {
							return err
						}
						results[ci] = *res
						return nil
					},
				}
				if opts.warmOn() {
					cell.Prefix = key
				}
				cells = append(cells, cell)
				i++
			}
		}
	}
	if err := RunSweep(ctx, cells); err != nil {
		return nil, err
	}
	rep := &AESGridReport{Points: points}
	for ci := range points {
		rep.Points[ci].Result = results[ci]
		rep.Stats.Add(results[ci].Stats)
	}
	return rep, nil
}

// SyscallBranchCounts reproduces §7.1: the taken-branch counts a syscall's
// entry and exit paths contribute to the user-visible PHR.
func SyscallBranchCounts() (entry, exit int, err error) {
	return victim.SyscallEntryBranches, victim.SyscallExitBranches, nil
}

type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func randomReg(size int, seed int64) *phr.Reg {
	r := phr.New(size)
	g := newRng(uint64(seed)*2654435761 + 5)
	for i := 0; i < size; i++ {
		r.SetDoublet(i, phr.Doublet(g.next()&3))
	}
	return r
}
