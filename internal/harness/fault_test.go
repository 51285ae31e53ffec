package harness

import (
	"context"
	"testing"

	"pathfinder/internal/faultinject"
)

// TestFaultedAESParallelismInvariant pins the fault-injection determinism
// contract end to end: with every injector armed, the §9 AES evaluation
// report is byte-identical at Parallelism 1, 4 and GOMAXPROCS. Each trial
// machine seeds its injector from the trial index alone, so neither worker
// count nor scheduling order can move a single fault event.
func TestFaultedAESParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	prof := faultinject.Default().WithPollution(0.001, 8)
	opts := func(w int) Options {
		return Options{parallelism: w, Faults: &prof}
	}
	base, err := AESLeakEval(context.Background(), opts(1), 6, 0.015)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 0} {
		rep, err := AESLeakEval(context.Background(), opts(w), 6, 0.015)
		if err != nil {
			t.Fatalf("parallelism %d: %v", w, err)
		}
		if got, want := marshalReport(t, rep), marshalReport(t, base); got != want {
			t.Errorf("parallelism %d diverges from sequential:\ngot:  %s\nwant: %s", w, got, want)
		}
	}
}

// TestFaultedReadPHRParallelismInvariant covers the same contract on the
// retrying ReadPHR driver, whose per-attempt reseeds must also be pure
// functions of the trial index.
func TestFaultedReadPHRParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	prof := faultinject.Default()
	base, err := ReadPHRRandomEval(context.Background(), Options{parallelism: 1, Faults: &prof}, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 0} {
		rep, err := ReadPHRRandomEval(context.Background(), Options{parallelism: w, Faults: &prof}, 3, 8)
		if err != nil {
			t.Fatalf("parallelism %d: %v", w, err)
		}
		if got, want := marshalReport(t, rep), marshalReport(t, base); got != want {
			t.Errorf("parallelism %d diverges from sequential:\ngot:  %s\nwant: %s", w, got, want)
		}
	}
}

// TestAESDefaultProfileBand pins the §9 robustness calibration: under the
// default noise profile the byte success rate stays in the paper's 96–100%
// band. The evaluation is deterministic, so this is a regression fence for
// the profile constants, not a flaky statistical assertion.
func TestAESDefaultProfileBand(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	prof := faultinject.Default()
	res, err := AESLeakEval(context.Background(), Options{Faults: &prof}, 24, 0.015)
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate < 0.96 || res.SuccessRate > 1 {
		t.Errorf("default-profile byte success rate = %.4f, want within [0.96, 1.00]", res.SuccessRate)
	}
	if !res.KeyRecovered {
		t.Error("default-profile evaluation failed to recover the key")
	}
}

// TestAESNoiseSweepDegradesMonotonically checks the sweep's defining
// property: byte accuracy never improves as the PHR-pollution hazard rises.
// A reduced trial count keeps the test affordable; the committed
// BENCH_noise.json records the full-size sweep.
func TestAESNoiseSweepDegradesMonotonically(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	rep, err := AESNoiseSweep(context.Background(), Options{}, 8, 0.015, []float64{0, 0.001, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 3 {
		t.Fatalf("sweep returned %d points, want 3", len(rep.Points))
	}
	for i := 1; i < len(rep.Points); i++ {
		prev, cur := rep.Points[i-1], rep.Points[i]
		if cur.Result.SuccessRate > prev.Result.SuccessRate {
			t.Errorf("success rate rose with pollution: %.4f@%v -> %.4f@%v",
				prev.Result.SuccessRate, prev.PHRPollutionProb,
				cur.Result.SuccessRate, cur.PHRPollutionProb)
		}
	}
	if first := rep.Points[0].Result.SuccessRate; first < 0.9 {
		t.Errorf("pollution-free point degraded to %.4f", first)
	}
	if last := rep.Points[len(rep.Points)-1].Result.SuccessRate; last > 0.5 {
		t.Errorf("pollution storm point still at %.4f, want visible erosion", last)
	}
}
