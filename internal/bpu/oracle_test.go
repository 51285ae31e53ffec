package bpu

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"pathfinder/internal/phr"
)

// TestHistoryCapacityCliff is the correlated-branch experiment (branch A with
// a random outcome, N taken padding jumps, branch B repeating A's outcome)
// run against the CBP, with the padding depth at which B stops being
// predictable derived from first principles rather than recorded from the
// model's own output.
//
// Every iteration starts from an all-zero PHR. A taken A shifts its
// footprint in and a not-taken A leaves the register alone; the padding
// jumps have a zero footprint, so they only shift. B therefore sees one of
// two histories that differ exactly by A's footprint, moved up N doublets.
// Its lowest nonzero doublet lo sits at N+lo and leaves the register when
// N+lo reaches PHRSize. So the cliff is N* = PHRSize - lo: at N*-1 the
// longest tagged table still separates the two histories and B is learned;
// at N* the histories are identical and B is a coin flip.
func TestHistoryCapacityCliff(t *testing.T) {
	cases := []struct {
		fp    uint16
		cliff map[string]int // expected N* by machine
	}{
		{0x8000, map[string]int{AlderLake.Name: 187, Skylake.Name: 86}},
		{0x0060, map[string]int{AlderLake.Name: 192, Skylake.Name: 91}},
		{0x0001, map[string]int{AlderLake.Name: 194, Skylake.Name: 93}},
		{0x0003, map[string]int{AlderLake.Name: 194, Skylake.Name: 93}},
		{0xc001, map[string]int{AlderLake.Name: 194, Skylake.Name: 93}},
	}
	for _, cfg := range []Config{AlderLake, Skylake} {
		for _, tc := range cases {
			lo := bits.TrailingZeros16(tc.fp) / 2
			nStar := cfg.PHRSize - lo
			if nStar != tc.cliff[cfg.Name] {
				t.Fatalf("%s fp=%#04x: derived cliff %d, table says %d", cfg.Name, tc.fp, nStar, tc.cliff[cfg.Name])
			}
			t.Run(fmt.Sprintf("%s/fp=%#04x", cfg.Name, tc.fp), func(t *testing.T) {
				below, at := correlatedMissRate(cfg, tc.fp, nStar-1), correlatedMissRate(cfg, tc.fp, nStar)
				t.Logf("N*=%d: B mispredicts %.3f at N*-1, %.3f at N*", nStar, below, at)
				if below >= 0.05 {
					t.Errorf("N=%d (below the cliff): B mispredicted %.3f, want < 0.05", nStar-1, below)
				}
				if at < 0.35 || at > 0.65 {
					t.Errorf("N=%d (at the cliff): B mispredicted %.3f, want 0.35..0.65", nStar, at)
				}
			})
		}
	}
}

// correlatedMissRate runs the experiment on a fresh CBP with n padding jumps
// and returns B's misprediction rate after a warm-up.
func correlatedMissRate(cfg Config, fpA uint16, n int) float64 {
	const (
		pcA, pcB   = 0x4140, 0x5c80
		warm, meas = 300, 600
	)
	c := NewCBP(cfg)
	h := phr.New(cfg.PHRSize)
	rng := rand.New(rand.NewSource(int64(fpA)<<8 | int64(n)))
	miss := 0
	for i := 0; i < warm+meas; i++ {
		h.Clear()
		taken := rng.Intn(2) == 0
		p := c.Predict(pcA, h)
		c.Update(pcA, h, taken, p)
		if taken {
			h.Update(fpA)
		}
		for j := 0; j < n; j++ {
			h.Update(0) // a taken padding jump with a zero footprint
		}
		p = c.Predict(pcB, h)
		if i >= warm && p.Taken != taken {
			miss++
		}
		c.Update(pcB, h, taken, p)
	}
	return float64(miss) / meas
}
