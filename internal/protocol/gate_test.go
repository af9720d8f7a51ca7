package protocol

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ppstream/internal/obs"
	"ppstream/internal/tensor"
)

// TestGateInFlightBound: the hard in-flight bound rejects the N+1st
// admission with a typed retryable error and recovers on release. With
// the latency check off, the gate builds no latency window.
func TestGateInFlightBound(t *testing.T) {
	reg := obs.NewRegistry("gate")
	g, err := NewGate(GateConfig{MaxInFlight: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if g.win != nil {
		t.Error("a gate without a latency target built a latency window")
	}
	if err := g.admit(); err != nil {
		t.Fatal(err)
	}
	if err := g.admit(); err != nil {
		t.Fatal(err)
	}
	err = g.admit()
	if !errors.Is(err, ErrShed) {
		t.Fatalf("third admit: %v", err)
	}
	if !Retryable(err) {
		t.Error("shed rejection must be retryable")
	}
	if got := reg.Snapshot().Gauges["shed.inflight"]; got != 2 {
		t.Errorf("in-flight %d after a refused admit", got)
	}
	g.release()
	if err := g.admit(); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["shed.rejected.total"] != 1 || snap.Counters["shed.rejected.inflight"] != 1 {
		t.Errorf("rejection counters: %+v", snap.Counters)
	}
	if got := snap.Gauges["shed.inflight"]; got != 2 {
		t.Errorf("shed.inflight gauge %d, want the 2 held slots", got)
	}
}

// TestGateLatencyTarget: sustained slow latencies trip the windowed p95
// check; once the slow evidence ages out of the time window the gate
// admits again — the cumulative histogram would never recover, the
// sliding window does. A burst of fast observations alone must NOT clear
// an overload verdict while the slow ones are still in-window (that was
// the count-ring's blind spot).
func TestGateLatencyTarget(t *testing.T) {
	g, err := NewGate(GateConfig{LatencyTarget: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	g.now = func() time.Time { return now }
	for i := 0; i < 64; i++ {
		g.observe(100 * time.Millisecond)
	}
	if err := g.admit(); !errors.Is(err, ErrShed) {
		t.Fatalf("overloaded gate admitted: %v", err)
	}
	// Fast traffic cannot whitewash the in-window overload evidence:
	// even 10× as many fast observations leave the p95 over target.
	for i := 0; i < 640; i++ {
		g.observe(time.Millisecond)
	}
	if err := g.admit(); !errors.Is(err, ErrShed) {
		t.Fatalf("fast burst cleared an in-window overload: %v", err)
	}
	// The clock moving past the window ages the evidence out.
	now = now.Add(2 * shedWindow)
	if err := g.admit(); err != nil {
		t.Fatalf("recovered gate still refusing: %v", err)
	}
	g.release()
	// Healthy traffic in the fresh window keeps admissions flowing.
	for i := 0; i < 64; i++ {
		g.observe(time.Millisecond)
	}
	if err := g.admit(); err != nil {
		t.Fatalf("healthy window refusing: %v", err)
	}
	g.release()
}

// TestRateLimiterValidation: a gate's rate limit needs a positive window;
// a gate without a rate limit needs none.
func TestRateLimiterValidation(t *testing.T) {
	if _, err := NewGate(GateConfig{RateLimit: 5}); err == nil {
		t.Error("a rate limit without a window accepted")
	}
	if _, err := NewGate(GateConfig{RateLimit: 5, RateWindow: -time.Second}); err == nil {
		t.Error("a rate limit with a negative window accepted")
	}
	if _, err := NewGate(GateConfig{MaxInFlight: 1}); err != nil {
		t.Errorf("a gate without a rate limit refused: %v", err)
	}
}

// TestRateLimiterWindow: the gate's rate window counts the starts the
// checks before it admitted, refuses past its limit with a retryable
// ErrThrottled that holds no slot, and frees capacity as starts age out
// of it.
func TestRateLimiterWindow(t *testing.T) {
	reg := obs.NewRegistry("gate-rate")
	g, err := NewGate(GateConfig{MaxInFlight: 1, RateLimit: 2, RateWindow: time.Minute, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	g.now = func() time.Time { return now }
	if err := g.admit(); err != nil {
		t.Fatal(err)
	}
	// The in-flight bound refuses first: this start is not counted.
	if err := g.admit(); !errors.Is(err, ErrShed) {
		t.Fatalf("admit past the in-flight bound: %v", err)
	}
	g.release()
	if err := g.admit(); err != nil {
		t.Fatalf("second start of the window: %v", err)
	}
	g.release()
	now = now.Add(30 * time.Second)
	err = g.admit()
	if !errors.Is(err, ErrThrottled) || !Retryable(err) {
		t.Errorf("third start within the window: %v, want a retryable ErrThrottled", err)
	}
	if got := reg.Snapshot().Gauges["shed.inflight"]; got != 0 {
		t.Errorf("a throttled admit holds %d slots", got)
	}
	// Past the first two starts' window, capacity frees up — and counts
	// from the new start: one more fits, then the window is full again.
	now = now.Add(31 * time.Second)
	for i := 0; i < 2; i++ {
		if err := g.admit(); err != nil {
			t.Errorf("start %d of the new window: %v", i, err)
		}
		g.release()
	}
	if err := g.admit(); !errors.Is(err, ErrThrottled) {
		t.Errorf("third start of the new window: %v", err)
	}
}

// TestGateNil: a nil gate admits everything — sessions without admission
// control configured pay nothing.
func TestGateNil(t *testing.T) {
	var g *Gate
	if err := g.admit(); err != nil {
		t.Fatal(err)
	}
	g.release()
	g.observe(time.Second)
}

// TestModelProviderEnforcesLimit: a session's rate window counts request
// starts, at admission, not rounds: a first request runs all its rounds,
// and a second one's start within the window is refused.
func TestModelProviderEnforcesLimit(t *testing.T) {
	gate, err := NewGate(GateConfig{RateLimit: 1, RateWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c := open(t, opening{cfg: SessionConfig{Gate: gate}}).client
	x := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 4)
	if _, err := c.Infer(context.Background(), x); err != nil {
		t.Fatalf("first request rejected: %v", err)
	}
	if _, err := c.Infer(context.Background(), x); err == nil {
		t.Error("second request within the window accepted")
	} else if !strings.Contains(err.Error(), "rate limit") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestThrottleErrorTyped: the rate window's refusal reaches the client as
// an error matching ErrThrottled through errors.Is — the client's retry
// loop keys on it — with the throttle's wire code.
func TestThrottleErrorTyped(t *testing.T) {
	gate, err := NewGate(GateConfig{RateLimit: 1, RateWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("throttle")
	c := open(t, opening{cfg: SessionConfig{Gate: gate, Registry: reg}}).client
	x := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 4)
	if _, err := c.Infer(context.Background(), x); err != nil {
		t.Fatalf("first request rejected: %v", err)
	}
	_, err = c.Infer(context.Background(), x)
	if !errors.Is(err, ErrThrottled) {
		t.Errorf("throttle rejection not errors.Is(ErrThrottled): %v", err)
	}
	if !Retryable(err) {
		t.Error("throttle rejection must be retryable")
	}
	if got := errCode(err); got != CodeThrottled {
		t.Errorf("throttle rejection travels with code %d", got)
	}
	if got := reg.Snapshot().Counters["serve.requests.shed"]; got != DefaultRetryAttempts {
		t.Errorf("serve.requests.shed = %d, want one per attempt (%d)", got, DefaultRetryAttempts)
	}
}
