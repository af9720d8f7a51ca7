package protocol

import (
	"fmt"
	"sync"
	"time"
)

// RateLimiter bounds the number of inference requests a data provider
// may start per window — the countermeasure the paper suggests against
// model-stealing attacks, where a compromised data provider trains a
// surrogate model on query/answer pairs (Section II-C).
//
// It is a sliding-window limiter keyed by request start; Lifecycle.Admit
// consults it, after the shedder, before a request exists.
type RateLimiter struct {
	mu     sync.Mutex
	limit  int
	window time.Duration
	starts []time.Time
	now    func() time.Time
}

// limiterShrinkMin is the smallest backing capacity worth shrinking, and
// limiterShrinkFactor how many times the live length the capacity must
// exceed before Allow reallocates. Together they keep steady-state churn
// allocation-free while bounding post-burst memory to a small multiple
// of the live window.
const (
	limiterShrinkMin    = 64
	limiterShrinkFactor = 4
)

// NewRateLimiter allows up to limit new requests per window.
func NewRateLimiter(limit int, window time.Duration) (*RateLimiter, error) {
	if limit <= 0 {
		return nil, fmt.Errorf("protocol: rate limit must be positive, got %d", limit)
	}
	if window <= 0 {
		return nil, fmt.Errorf("protocol: rate window must be positive, got %v", window)
	}
	return &RateLimiter{limit: limit, window: window, now: time.Now}, nil
}

// Allow reports whether a new request may start, recording it if so.
func (rl *RateLimiter) Allow() bool {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	now := rl.now()
	cutoff := now.Add(-rl.window)
	kept := rl.starts[:0]
	for _, t := range rl.starts {
		if t.After(cutoff) {
			kept = append(kept, t)
		}
	}
	// Shrink when a past burst left a backing array far larger than the
	// live window: reusing starts[:0] forever would pin the peak-burst
	// allocation for the life of the limiter.
	if cap(kept) >= limiterShrinkMin && cap(kept) > limiterShrinkFactor*len(kept) {
		shrunk := make([]time.Time, len(kept))
		copy(shrunk, kept)
		kept = shrunk
	}
	rl.starts = kept
	if len(rl.starts) >= rl.limit {
		return false
	}
	rl.starts = append(rl.starts, now)
	return true
}

// InFlight reports how many admissions remain inside the window.
func (rl *RateLimiter) InFlight() int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	cutoff := rl.now().Add(-rl.window)
	n := 0
	for _, t := range rl.starts {
		if t.After(cutoff) {
			n++
		}
	}
	return n
}

// admit records a new request start, or refuses it with an
// ErrThrottled-wrapped error once the window is full. A nil limiter admits
// everything.
func (rl *RateLimiter) admit() error {
	if rl == nil || rl.Allow() {
		return nil
	}
	return fmt.Errorf("%w: rate limit exceeded (%d per %v)", ErrThrottled, rl.limit, rl.window)
}
