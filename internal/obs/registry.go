package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. Like the logger
// and the recorders, a nil metric is a no-op and a nil Registry hands out
// nil metrics, so unobserved paths need no guards.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, active sessions).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of metrics. Lookup methods get-or-create
// under a short lock; the returned primitives are then updated lock-free,
// so callers should hold onto them rather than re-looking up per
// observation on hot paths.
type Registry struct {
	name string

	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram

	// Live (windowed) views: same names as their cumulative siblings,
	// separate namespace in snapshots and expositions.
	liveCounters map[string]*WindowedCounter
	liveHists    map[string]*WindowedHistogram
}

// NewRegistry creates an empty registry with the given name (shown in
// snapshots so multiple registries can be told apart).
func NewRegistry(name string) *Registry {
	return &Registry{
		name:         name,
		counters:     map[string]*Counter{},
		gauges:       map[string]*Gauge{},
		gaugeFuncs:   map[string]func() int64{},
		hists:        map[string]*Histogram{},
		liveCounters: map[string]*WindowedCounter{},
		liveHists:    map[string]*WindowedHistogram{},
	}
}

// Name returns the registry's name.
func (r *Registry) Name() string { return r.name }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback evaluated at snapshot time — used for
// values that already live elsewhere, like channel-edge queue depths.
// Re-registering a name replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFuncs[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named latency histogram, creating it (with the
// default exponential bounds) on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// LiveCounter returns the named windowed counter (default live-window
// geometry: one-second buckets spanning the last minute), creating it on
// first use. Live metrics reuse the names of their cumulative siblings —
// they live in a separate namespace in snapshots and expositions.
func (r *Registry) LiveCounter(name string) *WindowedCounter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.liveCounters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.liveCounters[name]; c == nil {
		c = NewWindowedCounter(DefaultLiveBucket, DefaultLiveBuckets)
		r.liveCounters[name] = c
	}
	return c
}

// LiveHistogram returns the named windowed latency histogram (default
// live-window geometry), creating it on first use.
func (r *Registry) LiveHistogram(name string) *WindowedHistogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.liveHists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.liveHists[name]; h == nil {
		h = NewWindowedHistogram(DefaultLiveBucket, DefaultLiveBuckets)
		r.liveHists[name] = h
	}
	return h
}

// Snapshot is a JSON-marshalable point-in-time view of a registry.
type Snapshot struct {
	Name       string                       `json:"name"`
	TakenAt    time.Time                    `json:"taken_at"`
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`

	// Windowed views (last-minute rates/quantiles), when registered.
	LiveCounters   map[string]WindowedCounterSnapshot   `json:"live_counters,omitempty"`
	LiveHistograms map[string]WindowedHistogramSnapshot `json:"live_histograms,omitempty"`
}

// Snapshot captures all metrics. Gauge callbacks are evaluated while the
// registry lock is held read-only; they must not call back into the
// registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Name:       r.name,
		TakenAt:    time.Now().UTC(),
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)+len(r.gaugeFuncs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFuncs {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	if len(r.liveCounters) > 0 {
		s.LiveCounters = make(map[string]WindowedCounterSnapshot, len(r.liveCounters))
		for name, c := range r.liveCounters {
			s.LiveCounters[name] = c.Snapshot()
		}
	}
	if len(r.liveHists) > 0 {
		s.LiveHistograms = make(map[string]WindowedHistogramSnapshot, len(r.liveHists))
		for name, h := range r.liveHists {
			s.LiveHistograms[name] = h.Snapshot()
		}
	}
	return s
}

// LiveSnapshot is the /debug/live payload: only the windowed views, so
// pollers (ppbench top) get current rates without the cumulative bulk.
type LiveSnapshot struct {
	Name       string                               `json:"name"`
	TakenAt    time.Time                            `json:"taken_at"`
	Counters   map[string]WindowedCounterSnapshot   `json:"counters"`
	Histograms map[string]WindowedHistogramSnapshot `json:"histograms"`
}

// LiveSnapshot captures only the windowed metrics.
func (r *Registry) LiveSnapshot() LiveSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := LiveSnapshot{
		Name:       r.name,
		TakenAt:    time.Now().UTC(),
		Counters:   make(map[string]WindowedCounterSnapshot, len(r.liveCounters)),
		Histograms: make(map[string]WindowedHistogramSnapshot, len(r.liveHists)),
	}
	for name, c := range r.liveCounters {
		s.Counters[name] = c.Snapshot()
	}
	for name, h := range r.liveHists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
