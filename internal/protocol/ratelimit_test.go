package protocol

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ppstream/internal/tensor"
)

func TestRateLimiterValidation(t *testing.T) {
	if _, err := NewRateLimiter(0, time.Second); err == nil {
		t.Error("zero limit accepted")
	}
	if _, err := NewRateLimiter(5, 0); err == nil {
		t.Error("zero window accepted")
	}
}

func TestRateLimiterWindow(t *testing.T) {
	rl, err := NewRateLimiter(2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// controllable clock
	now := time.Unix(1000, 0)
	rl.now = func() time.Time { return now }

	if rl.admit() != nil || rl.admit() != nil {
		t.Fatal("first two requests must pass")
	}
	now = now.Add(30 * time.Second)
	if err := rl.admit(); !errors.Is(err, ErrThrottled) {
		t.Errorf("third request within the window: %v", err)
	}
	// Past the first two starts' window, capacity frees up — and counts
	// from the new start: one more fits, then the window is full again.
	now = now.Add(31 * time.Second)
	if err := rl.admit(); err != nil {
		t.Errorf("request after window expiry rejected: %v", err)
	}
	if err := rl.admit(); err != nil {
		t.Errorf("second request of the new window rejected: %v", err)
	}
	if err := rl.admit(); !errors.Is(err, ErrThrottled) {
		t.Errorf("third request of the new window: %v", err)
	}
}

// TestModelProviderEnforcesLimit: the limit counts request starts, at
// admission, not rounds.
func TestModelProviderEnforcesLimit(t *testing.T) {
	k := key(t)
	net := buildNet(t)
	proto, err := Build(net, k, Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := NewRateLimiter(1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proto.life = NewLifecycle(proto.Model, SessionConfig{Limiter: rl})

	x := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 4)
	// First request completes all rounds (the limit counts request
	// starts, not rounds).
	if _, err := proto.Infer(1, x); err != nil {
		t.Fatalf("first request rejected: %v", err)
	}
	// Second request start must be rejected.
	if _, err := proto.Infer(2, x); err == nil {
		t.Error("second request within the window accepted")
	} else if !strings.Contains(err.Error(), "rate limit") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestThrottleErrorTyped: the limiter's rejection must match
// ErrThrottled through errors.Is — the client's retry loop keys on it.
func TestThrottleErrorTyped(t *testing.T) {
	k := key(t)
	net := buildNet(t)
	proto, err := Build(net, k, Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := NewRateLimiter(1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proto.life = NewLifecycle(proto.Model, SessionConfig{Limiter: rl})
	x := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 4)
	if _, err := proto.Infer(1, x); err != nil {
		t.Fatalf("first request rejected: %v", err)
	}
	_, err = proto.Infer(2, x)
	if !errors.Is(err, ErrThrottled) {
		t.Errorf("throttle rejection not errors.Is(ErrThrottled): %v", err)
	}
	if !Retryable(err) {
		t.Error("throttle rejection must be retryable")
	}
	if got := errCode(err); got != CodeThrottled {
		t.Errorf("throttle rejection travels with code %d", got)
	}
}
