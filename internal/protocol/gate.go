package protocol

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ppstream/internal/obs"
)

// Gate is a server's admission control: a session consults it before a
// request's first round creates any per-request state, so excess demand
// fails fast with a retryable typed error instead of queueing unboundedly
// behind work the server cannot finish in time. Share one Gate across
// every session of a server so its bounds are global.
//
// It runs three checks, in order, each off when its config field is zero:
//
//  1. a hard in-flight bound: requests admitted but not yet ended
//     (ErrShed);
//  2. a latency target compared against the p95 of the request latencies
//     observed in a sliding time window (ErrShed). The window matters
//     because a histogram's total is cumulative over the process lifetime
//     — a morning's fast requests would mask an afternoon collapse — and
//     its time basis means a burst of fast requests cannot instantly erase
//     the evidence of an overload either: slow observations age out with
//     the clock;
//  3. a sliding rate window on request starts (ErrThrottled) — the
//     countermeasure the paper suggests against model-stealing attacks,
//     where a compromised data provider trains a surrogate model on
//     query/answer pairs (Section II-C).
//
// A nil Gate admits everything.
type Gate struct {
	maxInFlight int64
	target      time.Duration
	now         func() time.Time // the clock of both windows

	inflight atomic.Int64
	win      *obs.Histogram // the latency window, built only for the latency check

	rejectedTotal    *obs.Counter
	rejectedInflight *obs.Counter
	rejectedLatency  *obs.Counter

	mu         sync.Mutex
	rateWindow time.Duration
	// starts is a ring of the last RateLimit admission times, next the
	// index of the oldest: a start is admitted when the oldest of them has
	// left the window. Empty when the rate check is off.
	starts []time.Time
	next   int
}

// GateConfig parameterizes a Gate. Zero values disable the corresponding
// check; the zero config admits everything.
type GateConfig struct {
	// MaxInFlight is the hard bound on admitted-but-unended requests;
	// <= 0 disables the in-flight check.
	MaxInFlight int64
	// LatencyTarget sheds new requests while the p95 of the request
	// latencies observed in the last shedWindow exceeds it; <= 0 disables
	// the latency check.
	LatencyTarget time.Duration
	// RateLimit bounds new requests per RateWindow; <= 0 disables the rate
	// check.
	RateLimit  int
	RateWindow time.Duration
	// Registry, when non-nil and a shed check (MaxInFlight or
	// LatencyTarget) is on, receives the "shed.rejected.total",
	// "shed.rejected.inflight" and "shed.rejected.latency" counters and the
	// "shed.inflight" gauge.
	Registry *obs.Registry
}

// shedWindow is the latency-judgment window: long enough to hold
// evidence of an overload, short enough that recovery clears it fast.
const shedWindow = 10 * time.Second

// shedBuckets is the ring resolution of the latency window.
const shedBuckets = 16

// NewGate builds an admission gate. A rate limit needs a positive window.
func NewGate(cfg GateConfig) (*Gate, error) {
	if cfg.RateLimit > 0 && cfg.RateWindow <= 0 {
		return nil, fmt.Errorf("protocol: rate window must be positive, got %v", cfg.RateWindow)
	}
	reg := cfg.Registry
	if cfg.MaxInFlight <= 0 && cfg.LatencyTarget <= 0 {
		reg = nil
	}
	g := &Gate{
		maxInFlight:      cfg.MaxInFlight,
		target:           cfg.LatencyTarget,
		rejectedTotal:    reg.Counter("shed.rejected.total"),
		rejectedInflight: reg.Counter("shed.rejected.inflight"),
		rejectedLatency:  reg.Counter("shed.rejected.latency"),
		rateWindow:       cfg.RateWindow,
		starts:           make([]time.Time, max(cfg.RateLimit, 0)),
		now:              time.Now,
	}
	if g.target > 0 {
		g.win = obs.NewLiveHistogram(shedWindow/shedBuckets, shedBuckets, func() time.Time { return g.now() })
	}
	reg.GaugeFunc("shed.inflight", g.inflight.Load)
	return g, nil
}

// admit takes a slot for one new request, or refuses it with an
// ErrShed- or ErrThrottled-wrapped error and holds nothing. Every admit
// that succeeds must be paired with exactly one release.
func (g *Gate) admit() error {
	if g == nil {
		return nil
	}
	if n := g.inflight.Add(1); g.maxInFlight > 0 && n > g.maxInFlight {
		g.inflight.Add(-1)
		g.rejectedTotal.Inc()
		g.rejectedInflight.Inc()
		return fmt.Errorf("%w: %d requests in flight (limit %d)", ErrShed, n-1, g.maxInFlight)
	}
	if g.target > 0 {
		if p95 := g.win.Live().P95; p95 > g.target {
			g.inflight.Add(-1)
			g.rejectedTotal.Inc()
			g.rejectedLatency.Inc()
			return fmt.Errorf("%w: recent p95 latency %v exceeds target %v", ErrShed, p95, g.target)
		}
	}
	if err := g.start(); err != nil {
		g.inflight.Add(-1)
		return err
	}
	return nil
}

// start records a new request start in the rate window, or refuses it with
// an ErrThrottled-wrapped error once the window is full.
func (g *Gate) start() error {
	if len(g.starts) == 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.now()
	if g.starts[g.next].After(now.Add(-g.rateWindow)) {
		return fmt.Errorf("%w: rate limit exceeded (%d per %v)", ErrThrottled, len(g.starts), g.rateWindow)
	}
	g.starts[g.next] = now
	g.next = (g.next + 1) % len(g.starts)
	return nil
}

// release returns one admitted request's slot.
func (g *Gate) release() {
	if g != nil {
		g.inflight.Add(-1)
	}
}

// observe records one completed request's latency into the latency
// window.
func (g *Gate) observe(d time.Duration) {
	if g != nil && g.target > 0 {
		g.win.Observe(d)
	}
}
