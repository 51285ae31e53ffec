package harness

import (
	"context"
	"errors"
	"testing"
)

// TestDriversHonorCancellation verifies every long-running driver unwinds
// with ctx.Err() when its context is already cancelled.
func TestDriversHonorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name string
		call func() error
	}{
		{"obs2", func() error { _, err := Obs2CounterWidth(ctx, Options{}, 12); return err }},
		{"fig4", func() error { _, err := Fig4ReadDoublet(ctx, Options{}, 4); return err }},
		{"readphr", func() error { _, err := ReadPHRRandomEval(ctx, Options{}, 2, 16); return err }},
		{"fig5", func() error { _, err := ExtendedReadEval(ctx, Options{}, []int{40}); return err }},
		{"fig6", func() error { _, err := Fig6PathfinderAES(ctx, Options{}); return err }},
		{"fig7", func() error { _, err := Fig7ImageRecovery(ctx, Options{}, 16, 60, 1); return err }},
		{"aes", func() error { _, err := AESLeakEval(ctx, Options{}, 8, 0); return err }},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
	}
}

// countdownCtx reports itself cancelled starting from its Nth Err
// observation — a deterministic way to land a cancellation at an exact
// trial index of a sequential (Parallelism 1) sweep. Not safe for
// concurrent use; its Done channel never closes, which is fine because the
// zero Retry policy never sleeps.
type countdownCtx struct {
	context.Context
	remaining int
	fired     bool
}

func (c *countdownCtx) Err() error {
	if c.fired {
		return context.Canceled
	}
	c.remaining--
	if c.remaining <= 0 {
		c.fired = true
		return context.Canceled
	}
	return c.Context.Err()
}

// TestDriversCancelMidSweep verifies a context that dies partway through a
// sweep surfaces as ctx.Err() from every driver — never as a silently
// truncated report. The countdown lands the cancellation at a deterministic
// trial index on the sequential path.
func TestDriversCancelMidSweep(t *testing.T) {
	seq := Options{parallelism: 1}
	cases := []struct {
		name string
		fire int // Err observations before the context dies
		call func(ctx context.Context) (any, error)
	}{
		{"obs2", 3, func(ctx context.Context) (any, error) { return Obs2CounterWidth(ctx, seq, 6) }},
		{"fig4", 2, func(ctx context.Context) (any, error) { return Fig4ReadDoublet(ctx, seq, 4) }},
		{"readphr", 3, func(ctx context.Context) (any, error) { return ReadPHRRandomEval(ctx, seq, 4, 12) }},
		{"fig5", 2, func(ctx context.Context) (any, error) { return ExtendedReadEval(ctx, seq, []int{20, 24, 28}) }},
	}
	for _, tc := range cases {
		ctx := &countdownCtx{Context: context.Background(), remaining: tc.fire}
		rep, err := tc.call(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if rep != nil && !isNilPtr(rep) {
			t.Errorf("%s: returned a report alongside cancellation", tc.name)
		}
	}
}

// isNilPtr unwraps the typed-nil-in-interface case of the driver returns.
func isNilPtr(v any) bool {
	switch p := v.(type) {
	case *Obs2Report:
		return p == nil
	case *Fig4Report:
		return p == nil
	case *ReadPHRReport:
		return p == nil
	case *ExtendedReport:
		return p == nil
	default:
		return false
	}
}
