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
	window time.Duration
	// starts is a ring of the last limit admission times, next the index
	// of the oldest: a start is admitted when the oldest of them has left
	// the window.
	starts []time.Time
	next   int
	now    func() time.Time
}

// NewRateLimiter allows up to limit new requests per window.
func NewRateLimiter(limit int, window time.Duration) (*RateLimiter, error) {
	if limit <= 0 {
		return nil, fmt.Errorf("protocol: rate limit must be positive, got %d", limit)
	}
	if window <= 0 {
		return nil, fmt.Errorf("protocol: rate window must be positive, got %v", window)
	}
	return &RateLimiter{window: window, starts: make([]time.Time, limit), now: time.Now}, nil
}

// admit records a new request start, or refuses it with an
// ErrThrottled-wrapped error once the window is full. A nil limiter admits
// everything.
func (rl *RateLimiter) admit() error {
	if rl == nil {
		return nil
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	now := rl.now()
	if rl.starts[rl.next].After(now.Add(-rl.window)) {
		return fmt.Errorf("%w: rate limit exceeded (%d per %v)", ErrThrottled, len(rl.starts), rl.window)
	}
	rl.starts[rl.next] = now
	rl.next = (rl.next + 1) % len(rl.starts)
	return nil
}
