package service

import (
	"fmt"
	"sync"
	"time"
)

// failureClass buckets terminal failures for the breaker and the metrics
// surface: a timeout, a panic, and an ordinary error are different diseases
// even though all three land the job in StateFailed.
type failureClass string

const (
	failTimeout failureClass = "timeout"
	failPanic   failureClass = "panic"
	failError   failureClass = "error"
)

// Breaker states, exposed as gauge values on /metrics and /readyz. The
// cluster layer reuses the same encoding for per-peer breakers.
const (
	BreakerClosed   = 0
	BreakerHalfOpen = 1
	BreakerOpen     = 2
)

// KeyedBreaker is a map of independent circuit breakers sharing one
// threshold and cooldown. The service pool keys it by experiment name; the
// cluster keys it by peer. A key that fails `threshold` consecutive times
// stops being admitted (open) until `cooldown` passes; the first admission
// after the cooldown is the probe (half-open), and its outcome decides
// between closing the circuit and re-opening it. Only terminal outcomes
// move the state — cancellations say nothing about the key's health.
type KeyedBreaker struct {
	mu        sync.Mutex
	noun      string // what a key names in error messages ("experiment", "peer")
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	keys      map[string]*keyBreaker
}

type keyBreaker struct {
	state       int
	consecutive int
	openedAt    time.Time
}

// NewKeyedBreaker builds a breaker map. noun appears in rejection messages
// so callers read "peer w0 has failed..." rather than a generic key.
func NewKeyedBreaker(noun string, threshold int, cooldown time.Duration, now func() time.Time) *KeyedBreaker {
	if now == nil {
		now = time.Now
	}
	return &KeyedBreaker{
		noun:      noun,
		threshold: threshold,
		cooldown:  cooldown,
		now:       now,
		keys:      make(map[string]*keyBreaker),
	}
}

// Allow admits or rejects the key, wrapping ErrBreakerOpen on rejection.
func (b *KeyedBreaker) Allow(key string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.keys[key]
	if e == nil {
		return nil
	}
	switch e.state {
	case BreakerOpen:
		if wait := b.cooldown - b.now().Sub(e.openedAt); wait > 0 {
			return fmt.Errorf("%w: %s %q has failed %d consecutive times, retry in %s",
				ErrBreakerOpen, b.noun, key, e.consecutive, wait.Round(time.Millisecond))
		}
		// Cooldown over: admit this one submission as the probe.
		e.state = BreakerHalfOpen
		return nil
	case BreakerHalfOpen:
		return fmt.Errorf("%w: %s %q is probing after repeated failures, retry shortly",
			ErrBreakerOpen, b.noun, key)
	}
	return nil
}

// Record feeds one terminal outcome into the key's breaker.
func (b *KeyedBreaker) Record(key string, success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.keys[key]
	if success {
		if e != nil {
			delete(b.keys, key)
		}
		return
	}
	if e == nil {
		e = &keyBreaker{}
		b.keys[key] = e
	}
	e.consecutive++
	if e.state == BreakerHalfOpen || e.consecutive >= b.threshold {
		e.state = BreakerOpen
		e.openedAt = b.now()
	}
}

// State returns the key's current breaker state gauge.
func (b *KeyedBreaker) State(key string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.keys[key]; e != nil {
		return e.state
	}
	return BreakerClosed
}

// Snapshot returns the state gauge of every key the breaker tracks.
func (b *KeyedBreaker) Snapshot() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int, len(b.keys))
	for key, e := range b.keys {
		out[key] = e.state
	}
	return out
}
