package main

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"pathfinder/internal/attack"
	"pathfinder/internal/cpu"
	"pathfinder/internal/harness"
	"pathfinder/internal/jpeg"
	"pathfinder/internal/media"
)

// image-recovery: each op recovers one image of the §8 synthetic test set on
// a fresh machine, doing what harness.Fig7ImageRecovery does per image:
// encode, recover under its retry policy, score the recovered flags. One
// image is in flight: two in flight pushed peak RSS to 3 to 4 GB, and
// background GC already fills the second core.
const (
	imageSize      = 16
	imageQuality   = 60
	imageSetupReps = 3
)

// imageCycle are the images the ops cycle through. They cost about the same
// (2.5 to 3 s each here): the whole set spans 2.7 to 6.3 s, and a run of
// about ten ops over it put its median on whichever image happened to land
// in the middle, so op_p50_ms jumped by a fifth between runs of one seed.
var imageCycle = []string{"qr-2", "logo-1", "logo-2", "captcha-1", "captcha-2"}

// testImage is one image with the set-up's reference encoding and the true
// per-block flags the recovery is scored against.
type testImage struct {
	name     string
	img      *media.Gray
	enc      []byte
	cols     [][8]bool
	rows     [][8]bool
	nFlagged int
}

// encodeCycle builds the test set, then encodes each image of imageCycle and
// derives its ground-truth flags.
func encodeCycle() ([]testImage, error) {
	byName := map[string]*media.Gray{}
	for _, e := range media.TestSet(imageSize) {
		byName[e.Name] = e.Image
	}
	var out []testImage
	for _, name := range imageCycle {
		img := byName[name]
		if img == nil {
			return nil, fmt.Errorf("test set has no image %q", name)
		}
		enc, err := jpeg.Encode(img.Pix, img.W, img.H, imageQuality)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", name, err)
		}
		_, blocks, err := jpeg.DecodeBlocks(enc)
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", name, err)
		}
		cols, rows := attack.GroundTruthFlags(blocks)
		out = append(out, testImage{name: name, img: img, enc: enc, cols: cols, rows: rows, nFlagged: 16 * len(blocks)})
	}
	return out, nil
}

func runImageRecovery(ctx context.Context, cfg config) (*measurement, error) {
	m := &measurement{layers: map[string]float64{}}
	// Set-up encodes the images and warms the process with one recovery, so
	// one-time initialisation falls outside the timed ops. Encoding alone
	// takes about a millisecond, too short to time steadily.
	var set []testImage
	for r := range imageSetupReps {
		t := time.Now()
		s, err := encodeCycle()
		if err != nil {
			return nil, err
		}
		if _, _, err := recoverImage(ctx, s[0], deriveSeed(cfg.seed, 3, uint64(r))); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		m.setup = append(m.setup, time.Since(t))
		set = s
	}

	var sim cpu.Counters
	right, all := 0, 0
	load, err := startInprocLoad(cfg)
	if err != nil {
		return nil, err
	}
	// Ops run until the deadline, and at least one full cycle, over which
	// the accuracy and the simulator counts average.
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; i < len(set) || time.Now().Before(deadline); i++ {
		ti := set[i%len(set)]
		// Each op starts from a collected heap whose free pages are back
		// with the OS, so its GC schedule and its peak RSS are its own,
		// not what the image before it left behind.
		debug.FreeOSMemory()
		load.beginOp()
		t := time.Now()
		ok, stats, err := recoverImage(ctx, ti, deriveSeed(cfg.seed, 0, uint64(i)))
		m.latencies = append(m.latencies, time.Since(t))
		load.endOp()
		// A failed image counts as none of its flags right.
		if i < len(set) {
			right += ok
			all += ti.nFlagged
			sim.Add(stats)
		}
		if err != nil {
			m.failed++
			fmt.Fprintf(os.Stderr, "image-recovery op %d (%s): %v\n", i, ti.name, err)
		}
	}
	if err := load.finish(m); err != nil {
		return nil, err
	}
	m.accuracy = perOp(float64(right), all)
	addSimCounts(m.layers, sim, len(set))
	return m, nil
}

// recoverImage is one op: it returns how many constant-row/column flags
// the recovery got right and the machines' simulator counters.
func recoverImage(ctx context.Context, ti testImage, seed int64) (int, cpu.Counters, error) {
	var stats cpu.Counters
	enc, err := jpeg.Encode(ti.img.Pix, ti.img.W, ti.img.H, imageQuality)
	if err != nil {
		return 0, stats, err
	}
	if string(enc) != string(ti.enc) {
		return 0, stats, fmt.Errorf("encoding differs from the set-up's")
	}
	var res *attack.ImageResult
	err = harness.Retry{}.Do(ctx, seed, func(attempt int) error {
		// Fig7ImageRecovery reseeds each attempt 1000 apart.
		mach := cpu.New(cpu.Options{Seed: seed + 1000*int64(attempt)})
		var err error
		res, err = (&attack.ImageRecovery{M: mach}).Recover(enc)
		stats.Add(mach.Stats())
		return err
	})
	if err != nil {
		return 0, stats, err
	}
	if err := res.Score(ti.img); err != nil {
		return 0, stats, err
	}
	right := 0
	for b := range ti.cols {
		for k := range 8 {
			if res.ConstCols[b][k] == ti.cols[b][k] {
				right++
			}
			if res.ConstRows[b][k] == ti.rows[b][k] {
				right++
			}
		}
	}
	return right, stats, nil
}
