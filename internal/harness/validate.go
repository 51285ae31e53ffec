package harness

import "fmt"

// OptionsError reports an Options field whose value no driver can honour,
// as a type errors.As can match. The service never sees one for a job: its
// registry rejects the same values at submission.
type OptionsError struct {
	Field  string // Options field name, e.g. "BatchSize"
	Value  int    // the rejected value
	Reason string // what the field accepts
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("harness: invalid Options.%s %d: %s", e.Field, e.Value, e.Reason)
}

// Validate rejects option values that used to be absorbed silently: a
// negative Parallelism fell through to GOMAXPROCS and a negative BatchSize
// to the default grain, masking caller bugs. The sharded drivers and
// the grid sweeps validate up front and refuse to start; zero stays the
// documented "pick the default" sentinel for both fields.
func (o Options) Validate() error {
	if o.Parallelism < 0 {
		return &OptionsError{Field: "Parallelism", Value: o.Parallelism,
			Reason: "must be >= 0 (0 selects GOMAXPROCS, 1 the sequential path)"}
	}
	if o.BatchSize < 0 {
		return &OptionsError{Field: "BatchSize", Value: o.BatchSize,
			Reason: "must be >= 0 (0 selects the default grain, 1 the per-trial path)"}
	}
	return nil
}
