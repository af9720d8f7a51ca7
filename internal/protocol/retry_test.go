package protocol

import (
	"context"
	"errors"
	"testing"
	"time"

	"ppstream/internal/obs"
)

// TestRetryPolicyBackoffBounds: every backoff is positive and capped by
// min(base*2^(k-1), max) — full jitter never sleeps zero or over-cap.
func TestRetryPolicyBackoffBounds(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 4 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}.withDefaults()
	ceil := func(attempt int) time.Duration {
		c := p.BaseBackoff
		for i := 1; i < attempt; i++ {
			c *= 2
		}
		if c > p.MaxBackoff {
			c = p.MaxBackoff
		}
		return c
	}
	for attempt := 1; attempt <= 6; attempt++ {
		for trial := 0; trial < 50; trial++ {
			d := p.backoff(attempt)
			if d <= 0 || d > ceil(attempt) {
				t.Fatalf("backoff(%d) = %v outside (0, %v]", attempt, d, ceil(attempt))
			}
		}
	}
}

// TestRetryPolicyDefaults: the zero policy fills every knob.
func TestRetryPolicyDefaults(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if p.MaxAttempts != DefaultRetryAttempts || p.BaseBackoff != DefaultRetryBase ||
		p.MaxBackoff != DefaultRetryMax {
		t.Errorf("defaults not applied: %+v", p)
	}
}

// TestRedialerDialFailure: a dead endpoint fails every attempt with a
// retryable session-down error, is dialed once per attempt, and gives up
// within the policy's budget instead of hanging. The Redialer moves only
// retry.redials, a successful redial, so every retry counter stays 0:
// retry.attempts and retry.giveups are the client's round-0 loop's.
func TestRedialerDialFailure(t *testing.T) {
	reg := obs.NewRegistry("redial")
	dials := 0
	r := NewRedialer(func(context.Context) (*Client, error) {
		dials++
		return nil, errors.New("connection refused")
	}, RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}, reg)
	defer r.Close()
	_, err := r.Infer(context.Background(), nil)
	if err == nil {
		t.Fatal("dead endpoint succeeded")
	}
	if !errors.Is(err, ErrSessionDown) {
		t.Fatalf("dial failure not marked session-down: %v", err)
	}
	if dials != 3 {
		t.Errorf("dialed %d times, want 3", dials)
	}
	for name, n := range reg.Snapshot().Counters {
		if n != 0 {
			t.Errorf("%s = %d, want 0", name, n)
		}
	}
}

// TestRedialerCtxCancel: a cancelled context stops the retry loop
// immediately rather than burning the whole attempt budget.
func TestRedialerCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRedialer(func(context.Context) (*Client, error) {
		return nil, errors.New("refused")
	}, RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Millisecond}, nil)
	defer r.Close()
	if _, err := r.Infer(ctx, nil); err == nil {
		t.Fatal("cancelled context inferred")
	}
}
