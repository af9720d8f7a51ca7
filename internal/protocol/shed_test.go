package protocol

import (
	"errors"
	"testing"
	"time"

	"ppstream/internal/obs"
)

// TestShedderInFlightBound: the hard in-flight bound rejects the N+1st
// admission with a typed retryable error and recovers on Release.
func TestShedderInFlightBound(t *testing.T) {
	reg := obs.NewRegistry("shed")
	s := NewShedder(ShedConfig{MaxInFlight: 2, Registry: reg})
	if err := s.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := s.Acquire(); err != nil {
		t.Fatal(err)
	}
	err := s.Acquire()
	if !errors.Is(err, ErrShed) {
		t.Fatalf("third acquire: %v", err)
	}
	if !Retryable(err) {
		t.Error("shed rejection must be retryable")
	}
	if s.InFlight() != 2 {
		t.Errorf("in-flight %d after rejected acquire", s.InFlight())
	}
	s.Release()
	if err := s.Acquire(); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["shed.rejected.total"] != 1 || snap.Counters["shed.rejected.inflight"] != 1 {
		t.Errorf("rejection counters: %+v", snap.Counters)
	}
	if got := snap.Gauges["shed.inflight"]; got != 2 {
		t.Errorf("shed.inflight gauge %d, want the 2 held slots", got)
	}
}

// TestShedderLatencyTarget: sustained slow latencies trip the windowed
// p95 check; once the slow evidence ages out of the time window the
// shedder admits again — the cumulative histogram would never recover,
// the sliding window does. A burst of fast observations alone must NOT
// clear an overload verdict while the slow ones are still in-window
// (that was the count-ring's blind spot).
func TestShedderLatencyTarget(t *testing.T) {
	s := NewShedder(ShedConfig{LatencyTarget: 10 * time.Millisecond})
	now := time.Unix(1_700_000_000, 0)
	s.win.SetClock(func() time.Time { return now })
	for i := 0; i < 64; i++ {
		s.Observe(100 * time.Millisecond)
	}
	err := s.Acquire()
	if !errors.Is(err, ErrShed) {
		t.Fatalf("overloaded shedder admitted: %v", err)
	}
	// Fast traffic cannot whitewash the in-window overload evidence:
	// even 10× as many fast observations leave the p95 over target.
	for i := 0; i < 640; i++ {
		s.Observe(time.Millisecond)
	}
	if err := s.Acquire(); !errors.Is(err, ErrShed) {
		t.Fatalf("fast burst cleared an in-window overload: %v", err)
	}
	// The clock moving past the window ages the evidence out.
	now = now.Add(2 * shedWindow)
	if err := s.Acquire(); err != nil {
		t.Fatalf("recovered shedder still rejecting: %v", err)
	}
	s.Release()
	// Healthy traffic in the fresh window keeps admissions flowing.
	for i := 0; i < 64; i++ {
		s.Observe(time.Millisecond)
	}
	if err := s.Acquire(); err != nil {
		t.Fatalf("healthy window rejecting: %v", err)
	}
	s.Release()
}

// TestShedderNil: a nil shedder admits everything — sessions without
// admission control configured pay nothing.
func TestShedderNil(t *testing.T) {
	var s *Shedder
	if err := s.Acquire(); err != nil {
		t.Fatal(err)
	}
	s.Release()
	s.Observe(time.Second)
	if s.InFlight() != 0 {
		t.Error("nil shedder reports in-flight")
	}
}
