package service

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"pathfinder/internal/attack"
	"pathfinder/internal/bpu"
	"pathfinder/internal/cpu"
	"pathfinder/internal/faultinject"
	"pathfinder/internal/harness"
)

// Params are the caller-supplied knobs of a job, one typed superset across
// every experiment; each experiment reads the fields it understands and the
// registry fills zero fields from the experiment's defaults. The zero value
// of a field therefore means "use the default", matching the harness
// convention for seeds.
type Params struct {
	Arch     string  `json:"arch,omitempty"`     // alderlake | raptorlake | skylake ("" = alderlake)
	Seed     int64   `json:"seed,omitempty"`     // base seed; 0 = experiment default
	MaxM     int     `json:"max_m,omitempty"`    // obs2: longest T^m N^m pattern
	Doublets int     `json:"doublets,omitempty"` // fig4 / readphr: doublets read
	Trials   int     `json:"trials,omitempty"`   // readphr / aes: repetitions
	Trips    []int   `json:"trips,omitempty"`    // fig5: loop trip counts
	Size     int     `json:"size,omitempty"`     // fig7: image edge length
	Quality  int     `json:"quality,omitempty"`  // fig7: JPEG quality
	Images   int     `json:"images,omitempty"`   // fig7: test-set prefix length
	Noise    float64 `json:"noise,omitempty"`    // aes: transient-collapse probability (<0 = exactly zero)

	// Faults arms the deterministic fault-injection layer for the job's
	// machines; nil leaves it off. aes_noise uses it as the sweep's base
	// profile (nil = faultinject.Default).
	Faults *faultinject.Profile `json:"faults,omitempty"`

	// Intensities are the aes_noise PHR-pollution hazard rates to sweep;
	// empty selects harness.DefaultNoiseIntensities.
	Intensities []float64 `json:"intensities,omitempty"`

	// Archs, Seeds and Noises are the aes_grid sweep dimensions — the grid
	// driver runs the §9 evaluation at every (arch, seed, noise) cell
	// through the shared-prefix sweep planner. Empty dimensions fall back
	// to the experiment defaults. Noises are literal transient-collapse
	// probabilities (0 means noiseless; no sentinel).
	Archs  []string  `json:"archs,omitempty"`
	Seeds  []int64   `json:"seeds,omitempty"`
	Noises []float64 `json:"noises,omitempty"`
}

// ArchConfig resolves a microarchitecture name to its Table 1 config. The
// empty string selects Alder Lake, mirroring cpu.Options.
func ArchConfig(name string) (bpu.Config, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "alderlake", "alder lake":
		return bpu.AlderLake, nil
	case "raptorlake", "raptor lake":
		return bpu.RaptorLake, nil
	case "skylake":
		return bpu.Skylake, nil
	}
	return bpu.Config{}, fmt.Errorf("unknown microarchitecture %q (want alderlake, raptorlake or skylake)", name)
}

// harnessOptions converts resolved params into driver options.
func (p Params) harnessOptions() (harness.Options, error) {
	arch, err := ArchConfig(p.Arch)
	if err != nil {
		return harness.Options{}, err
	}
	return harness.Options{Arch: arch, Seed: p.Seed, Faults: p.Faults}, nil
}

// EffectiveNoise maps the canonical noise field to the numeric probability
// drivers consume: the "<0 = exactly zero" sentinel becomes 0.
func (p Params) EffectiveNoise() float64 {
	if p.Noise < 0 {
		return 0
	}
	return p.Noise
}

// Runner executes one experiment. It must honor ctx cancellation, and
// returns a JSON-serializable result plus the aggregated simulator counters
// of every machine it built (zero if the driver does not expose them).
type Runner func(ctx context.Context, p Params) (result any, stats cpu.Counters, err error)

// Execute runs one experiment and marshals its result. A panic in the
// runner becomes an error carrying its stack, so one bad experiment cannot
// take down the goroutine running it. The service's workers and the
// coordinator's degraded mode both run jobs through here.
func Execute(ctx context.Context, run Runner, p Params) (raw json.RawMessage, stats cpu.Counters, err error) {
	defer func() {
		if r := recover(); r != nil {
			raw, err = nil, fmt.Errorf("experiment panicked: %v\n%s", r, debug.Stack())
		}
	}()
	result, stats, err := run(ctx, p)
	if err != nil {
		return nil, stats, err
	}
	if raw, err = json.Marshal(result); err != nil {
		return nil, stats, fmt.Errorf("marshaling result: %w", err)
	}
	return raw, stats, nil
}

// Experiment is one registry entry.
type Experiment struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Defaults    Params `json:"defaults"`
	Run         Runner `json:"-"`
}

// Registry maps experiment names to specs. The zero value is unusable; use
// NewRegistry, which pre-registers the full DESIGN.md §3 experiment index.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Experiment
}

// Register adds or replaces an experiment spec.
func (r *Registry) Register(e Experiment) error {
	if e.Name == "" || e.Run == nil {
		return fmt.Errorf("service: experiment needs a name and a runner")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byName[e.Name] = e
	return nil
}

// Get looks up an experiment by name.
func (r *Registry) Get(name string) (Experiment, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byName[name]
	return e, ok
}

// List returns every registered experiment, sorted by name.
func (r *Registry) List() []Experiment {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Experiment, 0, len(r.byName))
	for _, e := range r.byName {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Resolve validates the experiment name and parameters and fills zero
// fields from the experiment defaults. Submissions fail fast here — an
// unknown experiment or microarchitecture, or a value no driver accepts,
// never reaches the queue.
func (r *Registry) Resolve(name string, p Params) (Params, error) {
	e, ok := r.Get(name)
	if !ok {
		return p, fmt.Errorf("service: unknown experiment %q", name)
	}
	if _, err := ArchConfig(p.Arch); err != nil {
		return p, err
	}
	for _, a := range p.Archs {
		if _, err := ArchConfig(a); err != nil {
			return p, err
		}
	}
	if err := checkRanges(p); err != nil {
		return p, err
	}
	d := e.Defaults
	if p.Arch == "" {
		p.Arch = d.Arch
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if p.MaxM == 0 {
		p.MaxM = d.MaxM
	}
	if p.Doublets == 0 {
		p.Doublets = d.Doublets
	}
	if p.Trials == 0 {
		p.Trials = d.Trials
	}
	if len(p.Trips) == 0 {
		p.Trips = d.Trips
	}
	if p.Size == 0 {
		p.Size = d.Size
	}
	if p.Quality == 0 {
		p.Quality = d.Quality
	}
	if p.Images == 0 {
		p.Images = d.Images
	}
	// Zero means "use the default", so an explicitly noiseless run is
	// spelled with a negative value, canonicalized to -1. The sentinel
	// survives Resolve (rather than collapsing to 0) so resolving is
	// idempotent — the coordinator resolves for its canonical report and a
	// worker's service resolves the same params again, and both must agree.
	// EffectiveNoise maps it to the numeric probability at driver-call time.
	if p.Noise == 0 {
		p.Noise = d.Noise
	} else if p.Noise < 0 {
		p.Noise = -1
	}
	if p.Faults == nil {
		p.Faults = d.Faults
	}
	if len(p.Intensities) == 0 {
		p.Intensities = d.Intensities
	}
	if len(p.Archs) == 0 {
		p.Archs = d.Archs
	}
	if len(p.Seeds) == 0 {
		p.Seeds = d.Seeds
	}
	if len(p.Noises) == 0 {
		p.Noises = d.Noises
	}
	return p, nil
}

// checkRanges rejects the counts and sizes no driver accepts. Zero still
// selects the default and a negative noise stays the exactly-zero
// sentinel, so neither is an error.
func checkRanges(p Params) error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"max_m", p.MaxM}, {"doublets", p.Doublets}, {"trials", p.Trials},
		{"size", p.Size}, {"images", p.Images},
	} {
		if f.v < 0 {
			return fmt.Errorf("service: %s %d is negative", f.name, f.v)
		}
	}
	for _, n := range p.Trips {
		if n < 0 {
			return fmt.Errorf("service: trip count %d is negative", n)
		}
	}
	if p.Quality < 0 || p.Quality > 100 {
		return fmt.Errorf("service: quality %d is outside 1-100", p.Quality)
	}
	return nil
}

// NewRegistry builds a registry holding the full experiment index of
// DESIGN.md §3: every table and figure the repository reproduces, as a
// parameterized, JSON-serializable job spec.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[string]Experiment)}
	reg := func(e Experiment) {
		if err := r.Register(e); err != nil {
			panic(err)
		}
	}

	reg(Experiment{
		Name:        "table1",
		Description: "Table 1: target-processor inventory",
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			if err := ctx.Err(); err != nil {
				return nil, cpu.Counters{}, err
			}
			return struct {
				Configs  []bpu.Config `json:"configs"`
				Rendered string       `json:"rendered"`
			}{bpu.Configs(), harness.Table1()}, cpu.Counters{}, nil
		},
	})

	reg(Experiment{
		Name:        "obs2",
		Description: "Observation 2: saturating-counter width from T^m N^m mispredict plateau",
		Defaults:    Params{MaxM: 12},
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			opts, err := p.harnessOptions()
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			rep, err := harness.Obs2CounterWidth(ctx, opts, p.MaxM)
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			return rep, rep.Stats, nil
		},
	})

	reg(Experiment{
		Name:        "fig4",
		Description: "Figure 4: Read_PHR candidate misprediction-rate signature",
		Defaults:    Params{Doublets: 4},
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			opts, err := p.harnessOptions()
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			rep, err := harness.Fig4ReadDoublet(ctx, opts, p.Doublets)
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			return rep, rep.Stats, nil
		},
	})

	reg(Experiment{
		Name:        "readphr",
		Description: "§4.2: random PHR write/read round trips",
		Defaults:    Params{Trials: 3, Doublets: 48},
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			opts, err := p.harnessOptions()
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			rep, err := harness.ReadPHRRandomEval(ctx, opts, p.Trials, p.Doublets)
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			return rep, rep.Stats, nil
		},
	})

	reg(Experiment{
		Name:        "fig5",
		Description: "§5: Extended Read PHR over victims within and beyond the PHR window",
		Defaults:    Params{Trips: []int{60, 150, 250, 400}},
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			opts, err := p.harnessOptions()
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			rep, err := harness.ExtendedReadEval(ctx, opts, p.Trips)
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			return rep, rep.Stats, nil
		},
	})

	reg(Experiment{
		Name:        "fig6",
		Description: "Figure 6: Pathfinder runtime-CFG recovery of the looped AES victim",
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			opts, err := p.harnessOptions()
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			res, err := harness.Fig6PathfinderAES(ctx, opts)
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			return res, res.Stats, nil
		},
	})

	reg(Experiment{
		Name:        "table2",
		Description: "Table 2: primitive practicality across user/kernel/SGX/SMT/IBPB/IBRS boundaries",
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			if err := ctx.Err(); err != nil {
				return nil, cpu.Counters{}, err
			}
			cells, err := attack.AttackSurface()
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			return struct {
				Cells    []attack.SurfaceCell `json:"cells"`
				Rendered string               `json:"rendered"`
			}{cells, attack.FormatSurface(cells)}, cpu.Counters{}, nil
		},
	})

	reg(Experiment{
		Name:        "fig7",
		Description: "Figure 7 / §8: secret-image recovery from IDCT control flow",
		Defaults:    Params{Size: 16, Quality: 60, Images: 2},
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			opts, err := p.harnessOptions()
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			rep, err := harness.Fig7ImageRecovery(ctx, opts, p.Size, p.Quality, p.Images)
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			return rep, rep.Stats, nil
		},
	})

	reg(Experiment{
		Name:        "aes",
		Description: "§9: reduced-round ciphertext theft + AES-128 key recovery under noise",
		Defaults:    Params{Trials: 24, Noise: 0.015},
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			opts, err := p.harnessOptions()
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			res, err := harness.AESLeakEval(ctx, opts, p.Trials, p.EffectiveNoise())
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			return res, res.Stats, nil
		},
	})

	reg(Experiment{
		Name:        "aes_noise",
		Description: "§9 robustness: AES byte-theft accuracy swept over PHR-pollution intensity",
		Defaults:    Params{Trials: 24, Noise: 0.015},
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			opts, err := p.harnessOptions()
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			rep, err := harness.AESNoiseSweep(ctx, opts, p.Trials, p.EffectiveNoise(), p.Intensities)
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			return rep, rep.Stats, nil
		},
	})

	reg(Experiment{
		Name:        "aes_grid",
		Description: "§9 batch: AES evaluation over an arch × seed × noise grid via the shared-prefix sweep planner",
		Defaults:    Params{Trials: 24, Archs: []string{"alderlake"}, Seeds: []int64{harness.DefaultAESSeed}, Noises: []float64{0}},
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			opts, err := p.harnessOptions()
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			archs := make([]bpu.Config, 0, len(p.Archs))
			for _, name := range p.Archs {
				cfg, aerr := ArchConfig(name)
				if aerr != nil {
					return nil, cpu.Counters{}, aerr
				}
				archs = append(archs, cfg)
			}
			rep, err := harness.AESGridSweep(ctx, opts, p.Trials, archs, p.Seeds, p.Noises)
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			return rep, rep.Stats, nil
		},
	})

	reg(Experiment{
		Name:        "mitigations",
		Description: "§10: software mitigation cost and effectiveness against the PHR leak",
		Run: func(ctx context.Context, p Params) (any, cpu.Counters, error) {
			if err := ctx.Err(); err != nil {
				return nil, cpu.Counters{}, err
			}
			rows, err := attack.EvaluateMitigations()
			if err != nil {
				return nil, cpu.Counters{}, err
			}
			return struct {
				Mitigations []attack.MitigationResult `json:"mitigations"`
			}{rows}, cpu.Counters{}, nil
		},
	})

	return r
}
