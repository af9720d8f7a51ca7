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

	if !rl.Allow() || !rl.Allow() {
		t.Fatal("first two requests must pass")
	}
	if rl.Allow() {
		t.Error("third request within the window passed")
	}
	if rl.InFlight() != 2 {
		t.Errorf("InFlight = %d", rl.InFlight())
	}
	// advance past the window: capacity frees up
	now = now.Add(2 * time.Minute)
	if !rl.Allow() {
		t.Error("request after window expiry rejected")
	}
	if rl.InFlight() != 1 {
		t.Errorf("InFlight after expiry = %d", rl.InFlight())
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

// TestRateLimiterShrinksAfterBurst: a peak burst must not pin its
// backing array forever — once the window empties, the next Allow
// reallocates down to the live size.
func TestRateLimiterShrinksAfterBurst(t *testing.T) {
	rl, err := NewRateLimiter(4096, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	rl.now = func() time.Time { return now }
	for i := 0; i < 2048; i++ {
		if !rl.Allow() {
			t.Fatalf("burst admission %d rejected", i)
		}
	}
	if cap(rl.starts) < 2048 {
		t.Fatalf("burst capacity %d, expected >= 2048", cap(rl.starts))
	}
	// The whole burst ages out; the next admission must shed the peak
	// backing array, keeping only a small multiple of the live window.
	now = now.Add(2 * time.Minute)
	if !rl.Allow() {
		t.Fatal("post-burst admission rejected")
	}
	if got := cap(rl.starts); got >= limiterShrinkMin {
		t.Errorf("backing array still %d entries after the window emptied (len %d)", got, len(rl.starts))
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
