package protocol

import (
	"fmt"
	"sync/atomic"
	"time"

	"ppstream/internal/obs"
)

// Shedder is the serving plane's admission controller: it rejects a
// request's first round — before any per-request crypto state exists —
// when the server is overloaded, so excess demand fails fast with a
// retryable typed error instead of queueing unboundedly behind work the
// server cannot finish in time.
//
// Overload is judged two ways: a hard in-flight bound (requests admitted
// but not yet released) and a latency target compared against the p95 of
// latencies observed in a sliding time window (obs.NewLiveHistogram).
// The window matters because a histogram's total is cumulative over the
// process lifetime — a morning's fast requests would mask an afternoon
// collapse; the time basis (rather than the old count-based ring) means
// a burst of fast requests cannot instantly erase the evidence of an
// overload either: the slow observations age out with the clock.
type Shedder struct {
	maxInFlight int64
	target      time.Duration

	inflight atomic.Int64
	win      *obs.Histogram

	rejectedTotal    *obs.Counter
	rejectedInflight *obs.Counter
	rejectedLatency  *obs.Counter
}

// ShedConfig parameterizes a Shedder. Zero values disable the
// corresponding check; a config with both zero admits everything.
type ShedConfig struct {
	// MaxInFlight is the hard bound on admitted-but-unreleased requests;
	// <= 0 disables the in-flight check.
	MaxInFlight int64
	// LatencyTarget sheds new requests while the windowed p95 of recent
	// request latencies exceeds it; <= 0 disables the latency check.
	LatencyTarget time.Duration
	// Window is the sliding window the p95 is computed over; <= 0 takes
	// DefaultShedWindow.
	Window time.Duration
	// Registry, when non-nil, receives "shed.rejected.total",
	// "shed.rejected.inflight", "shed.rejected.latency" counters and the
	// "shed.inflight" gauge.
	Registry *obs.Registry
}

// DefaultShedWindow is the latency-judgment window: long enough to hold
// evidence of an overload, short enough that recovery clears it fast.
const DefaultShedWindow = 10 * time.Second

// shedBuckets is the ring resolution of the latency window.
const shedBuckets = 16

// NewShedder builds an admission controller. Share one Shedder across
// every session of a server so the in-flight bound is global.
func NewShedder(cfg ShedConfig) *Shedder {
	if cfg.Window <= 0 {
		cfg.Window = DefaultShedWindow
	}
	s := &Shedder{
		maxInFlight: cfg.MaxInFlight,
		target:      cfg.LatencyTarget,
		win:         obs.NewLiveHistogram(cfg.Window/shedBuckets, shedBuckets),
	}
	if reg := cfg.Registry; reg != nil {
		s.rejectedTotal = reg.Counter("shed.rejected.total")
		s.rejectedInflight = reg.Counter("shed.rejected.inflight")
		s.rejectedLatency = reg.Counter("shed.rejected.latency")
		reg.GaugeFunc("shed.inflight", s.inflight.Load)
	}
	return s
}

// SetClock replaces the latency window's time source — a test hook so
// overload recovery is exercised without sleeping. Not for production
// use.
func (s *Shedder) SetClock(now func() time.Time) { s.win.SetClock(now) }

// Acquire admits one request or rejects it with an ErrShed-wrapped
// error. Every successful Acquire must be paired with exactly one
// Release. Nil receivers admit everything.
func (s *Shedder) Acquire() error {
	if s == nil {
		return nil
	}
	if s.maxInFlight > 0 {
		if n := s.inflight.Add(1); n > s.maxInFlight {
			s.inflight.Add(-1)
			if s.rejectedTotal != nil {
				s.rejectedTotal.Inc()
				s.rejectedInflight.Inc()
			}
			return fmt.Errorf("%w: %d requests in flight (limit %d)", ErrShed, n-1, s.maxInFlight)
		}
	} else {
		s.inflight.Add(1)
	}
	if s.target > 0 {
		if p95 := s.win.Live().P95; p95 > s.target {
			s.inflight.Add(-1)
			if s.rejectedTotal != nil {
				s.rejectedTotal.Inc()
				s.rejectedLatency.Inc()
			}
			return fmt.Errorf("%w: recent p95 latency %v exceeds target %v",
				ErrShed, p95, s.target)
		}
	}
	return nil
}

// Release returns one admitted request's slot. Nil-safe.
func (s *Shedder) Release() {
	if s == nil {
		return
	}
	s.inflight.Add(-1)
}

// Observe records one completed request's latency into the recent
// window. Nil-safe.
func (s *Shedder) Observe(d time.Duration) {
	if s == nil || s.target <= 0 {
		return
	}
	s.win.Observe(d)
}

// InFlight reports the currently admitted request count.
func (s *Shedder) InFlight() int64 {
	if s == nil {
		return 0
	}
	return s.inflight.Load()
}
