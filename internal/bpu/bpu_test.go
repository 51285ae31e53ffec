package bpu

import (
	"math/rand"
	"testing"

	"pathfinder/internal/phr"
	"pathfinder/internal/pht"
)

func TestConfigsTable1(t *testing.T) {
	cfgs := Configs()
	if len(cfgs) != 3 {
		t.Fatalf("want 3 machines, got %d", len(cfgs))
	}
	if RaptorLake.PHRSize != 194 || AlderLake.PHRSize != 194 || Skylake.PHRSize != 93 {
		t.Fatal("PHR sizes disagree with §2.2.1")
	}
	// Observation 1: Raptor Lake's PHR structure is identical to Alder Lake.
	if RaptorLake.PHRSize != AlderLake.PHRSize {
		t.Fatal("Observation 1 violated")
	}
	for i := range RaptorLake.TableHists {
		if RaptorLake.TableHists[i] != AlderLake.TableHists[i] {
			t.Fatal("Observation 1 violated (table hists)")
		}
	}
}

func TestCBPLearnsBias(t *testing.T) {
	c := NewCBP(AlderLake)
	h := phr.New(194)
	pc := uint64(0x4cc0)
	// An always-taken branch must converge to perfect prediction quickly.
	mis := 0
	for i := 0; i < 100; i++ {
		p := c.Predict(pc, h)
		if !p.Taken {
			mis++
		}
		c.Update(pc, h, true, p)
	}
	if mis > 8 {
		t.Fatalf("always-taken branch mispredicted %d/100 times", mis)
	}
}

func TestCBPLearnsHistoryCorrelation(t *testing.T) {
	// A branch whose outcome equals a bit encoded in the PHR must become
	// predictable through the tagged tables even though its overall bias is
	// 50/50 — the mechanism behind the Read PHR primitive.
	c := NewCBP(AlderLake)
	pc := uint64(0x5c80)
	rng := rand.New(rand.NewSource(42))
	hTaken := phr.New(194)
	hNot := phr.New(194)
	hTaken.SetDoublet(193, 2) // two distinct histories
	warm, meas := 64, 200
	mis := 0
	for i := 0; i < warm+meas; i++ {
		taken := rng.Intn(2) == 0
		h := hNot
		if taken {
			h = hTaken
		}
		p := c.Predict(pc, h)
		if i >= warm && p.Taken != taken {
			mis++
		}
		c.Update(pc, h, taken, p)
	}
	if mis > meas/20 {
		t.Fatalf("correlated branch mispredicted %d/%d after warmup", mis, meas)
	}
}

func TestCBPCannotLearnIdenticalHistories(t *testing.T) {
	// If both outcomes present the same (PC, PHR), prediction accuracy must
	// stay near 50% — the "X == P0" signal of Read PHR.
	c := NewCBP(AlderLake)
	pc := uint64(0x5c80)
	h := phr.New(194)
	h.SetDoublet(193, 2)
	rng := rand.New(rand.NewSource(43))
	warm, meas := 64, 400
	mis := 0
	for i := 0; i < warm+meas; i++ {
		taken := rng.Intn(2) == 0
		p := c.Predict(pc, h)
		if i >= warm && p.Taken != taken {
			mis++
		}
		c.Update(pc, h, taken, p)
	}
	rate := float64(mis) / float64(meas)
	if rate < 0.30 || rate > 0.70 {
		t.Fatalf("indistinguishable histories predicted with rate %.2f, want ~0.5", rate)
	}
}

func TestProviderIsLongestHit(t *testing.T) {
	c := NewCBP(AlderLake)
	h := phr.New(194)
	h.SetDoublet(50, 1) // visible to tables 2 (66) and 3 (194), not table 1 (34)
	pc := uint64(0x77c0)
	c.Tables[0].Allocate(pc, h, false)
	c.Tables[2].Allocate(pc, h, true)
	p := c.Predict(pc, h)
	if p.Provider != 2 || !p.Taken {
		t.Fatalf("provider %d taken %v, want table 2 taken", p.Provider, p.Taken)
	}
	if p.AltTaken {
		t.Fatal("alt prediction should come from table 0 (not taken)")
	}
}

func TestMispredictAllocatesLongerTable(t *testing.T) {
	c := NewCBP(AlderLake)
	h := phr.New(194)
	pc := uint64(0x3f40)
	// Base predicts not-taken initially; a taken outcome mispredicts and
	// must allocate in table 1 (shortest tagged table).
	p := c.Predict(pc, h)
	if p.Provider != -1 || p.Taken {
		t.Fatalf("unexpected initial prediction %+v", p)
	}
	c.Update(pc, h, true, p)
	if _, hit := c.Tables[0].Lookup(pc, h); !hit {
		t.Fatal("no allocation in table 1 after base misprediction")
	}
	if _, hit := c.Tables[1].Lookup(pc, h); hit {
		t.Fatal("allocation skipped a level")
	}
	// Next misprediction with table-1 provider allocates table 2.
	e, _ := c.Tables[0].Lookup(pc, h)
	e.Ctr = pht.WeakFor(false)
	p = c.Predict(pc, h)
	c.Update(pc, h, true, p)
	if _, hit := c.Tables[1].Lookup(pc, h); !hit {
		t.Fatal("no allocation in table 2")
	}
}

func TestFlushClearsEverything(t *testing.T) {
	c := NewCBP(RaptorLake)
	h := phr.New(194)
	pc := uint64(0x9c40)
	for i := 0; i < 10; i++ {
		p := c.Predict(pc, h)
		c.Update(pc, h, i%2 == 0, p)
	}
	c.Flush()
	for i, tt := range c.Tables {
		if tt.Occupancy() != 0 {
			t.Fatalf("table %d not flushed", i)
		}
	}
	if c.Base.Counter(pc) != pht.WeakFor(false) {
		t.Fatal("base not reset")
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB()
	b.Insert(0x100, 0x4000)
	if tgt, ok := b.Lookup(0x100); !ok || tgt != 0x4000 {
		t.Fatal("BTB lookup")
	}
	if _, ok := b.Lookup(0x101); ok {
		t.Fatal("BTB false hit")
	}
	b.Flush()
	if b.Occupancy() != 0 {
		t.Fatal("BTB flush")
	}
}

func TestIBP(t *testing.T) {
	p := NewIBP()
	h := phr.New(194)
	p.Insert(0x200, h, 0x8000)
	if tgt, ok := p.Lookup(0x200, h); !ok || tgt != 0x8000 {
		t.Fatal("IBP lookup")
	}
	h2 := phr.New(194)
	h2.SetDoublet(0, 1)
	if _, ok := p.Lookup(0x200, h2); ok {
		t.Fatal("IBP must key on history")
	}
	p.Flush()
	if p.Occupancy() != 0 {
		t.Fatal("IBP flush")
	}
}

func TestIBPBLeavesCBPIntact(t *testing.T) {
	// §7.4 / Table 2: IBPB flushes BTB and IBP but not the PHTs.
	u := NewUnit(AlderLake)
	h := phr.New(194)
	pc := uint64(0xaa80)
	p := u.CBP.Predict(pc, h)
	u.CBP.Update(pc, h, !p.Taken, p) // force a tagged allocation
	u.BTB.Insert(pc, 0x40)
	u.IBP.Insert(pc, h, 0x80)
	u.IBPB()
	if u.BTB.Occupancy() != 0 || u.IBP.Occupancy() != 0 {
		t.Fatal("IBPB must flush BTB and IBP")
	}
	if u.CBP.Tables[0].Occupancy() == 0 {
		t.Fatal("IBPB must NOT flush the CBP")
	}
}

func BenchmarkCBPPredictUpdate(b *testing.B) {
	c := NewCBP(AlderLake)
	h := phr.New(194)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(i%64) << 6
		p := c.Predict(pc, h)
		c.Update(pc, h, i&1 == 0, p)
		h.Update(uint16(i))
	}
}

// TestInsertRunMatchesInserts pins BTB.InsertRun against the Inserts it
// summarizes: from random prior contents, a random write sequence over a
// few slots (repeated and differing writes, writes that match what the slot
// already holds) must leave the same entries and the same dirty word
// whether applied one Insert at a time or as one BTBRun. A write to a fifth
// slot is refused and recorded nowhere.
func TestInsertRunMatchesInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 3000; trial++ {
		// Slots 0–7 in bank 0 plus one slot of a far bank, so the dirty
		// word tells the banks apart; two candidate pcs per slot and two
		// targets per pc make identical and differing writes both common.
		slots := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 64*37 + 5}
		write := func() (uint64, uint64) {
			s := slots[rng.Intn(1+rng.Intn(len(slots)))]
			pc := uint64(rng.Intn(2))<<16 | s
			return pc, 0x40 + uint64(rng.Intn(2))
		}
		seq := NewBTB()
		for i := rng.Intn(6); i > 0; i-- {
			seq.Insert(write())
		}
		seq.dirty = 0
		fused := NewBTB()
		copy(fused.entries, seq.entries)

		var run BTBRun
		for i := 1 + rng.Intn(12); i > 0; i-- {
			pc, tgt := write()
			held := int(run.n)
			if !run.Add(pc, tgt) {
				if held != BTBRunSlots {
					t.Fatalf("trial %d: Add refused a write with %d slots held", trial, held)
				}
				break
			}
			seq.Insert(pc, tgt)
		}
		fused.InsertRun(&run)
		for i := range seq.entries {
			if seq.entries[i] != fused.entries[i] {
				t.Fatalf("trial %d: slot %d = %+v, want %+v", trial, i, fused.entries[i], seq.entries[i])
			}
		}
		if seq.dirty != fused.dirty {
			t.Fatalf("trial %d: dirty word %#x, want %#x", trial, fused.dirty, seq.dirty)
		}
	}
}
