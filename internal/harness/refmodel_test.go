package harness

import (
	"context"
	"reflect"
	"testing"

	"pathfinder/internal/bpu"
)

// TestRefModelDriverParity is end-to-end differential validation: a whole
// experiment driver, run once on the production predictor and once on the
// internal/refmodel oracle, must produce byte-identical reports — points,
// inferred counter width, and every aggregated simulator counter (cycles
// include the mispredict penalty, so even one diverging prediction shows).
func TestRefModelDriverParity(t *testing.T) {
	ctx := context.Background()
	for _, arch := range []bpu.Config{bpu.AlderLake, bpu.Skylake} {
		fast, err := Obs2CounterWidth(ctx, Options{Arch: arch}, 4)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Obs2CounterWidth(ctx, Options{Arch: arch, refModel: true}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("%s: driver reports diverge between implementations\nfast: %+v\nref:  %+v", arch.Name, fast, ref)
		}
	}
}

// TestRefModelReadPHRParity runs the §4.2 read/write round trip — a full
// attack primitive, Write_PHR chains and all — on the oracle and requires
// the identical report.
func TestRefModelReadPHRParity(t *testing.T) {
	if testing.Short() {
		t.Skip("long mode only")
	}
	ctx := context.Background()
	fast, err := ReadPHRRandomEval(ctx, Options{}, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReadPHRRandomEval(ctx, Options{refModel: true}, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Errorf("ReadPHR reports diverge between implementations\nfast: %+v\nref:  %+v", fast, ref)
	}
	if fast.Successes != 1 {
		t.Errorf("round trip failed even on the fast model: %+v", fast)
	}
}
