package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. Like the logger
// and the span store, a nil metric is a no-op and a nil Registry hands out
// nil metrics, so unobserved paths need no guards. One registered live
// (Registry.LiveCounter) on a registry something reads live also keeps its
// last minute, fed by the same Add.
type Counter struct {
	v    atomic.Uint64
	live atomic.Pointer[ring]
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
	if w := c.live.Load(); w != nil {
		w.add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the count since the counter was created.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, active sessions).
type Gauge struct{ v atomic.Int64 }

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

// Registry is a named collection of metrics, one object per name.
// Lookup methods get-or-create under a short lock; the returned
// primitives are then updated lock-free, so callers should hold onto them
// rather than re-looking up per observation on hot paths.
type Registry struct {
	name string

	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
	// declared holds the window slot of every metric declared live (true
	// for a histogram's) until KeepWindows, which sets it nil.
	declared map[*atomic.Pointer[ring]]bool
}

// NewRegistry creates an empty registry with the given name (shown in
// snapshots so multiple registries can be told apart).
func NewRegistry(name string) *Registry {
	return &Registry{
		name:       name,
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() int64{},
		hists:      map[string]*Histogram{},
		declared:   map[*atomic.Pointer[ring]]bool{},
	}
}

// lookup returns m[name], creating it with mk on first use.
func lookup[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.RLock()
	v := m[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[name]; v == nil {
		v = mk()
		m[name] = v
	}
	return v
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, r.counters, name, func() *Counter { return &Counter{} })
}

// LiveCounter returns the named counter — the same object Counter returns
// — declared live: once the registry keeps windows (KeepWindows) it also
// counts into one-second slots over the trailing minute, served at
// /debug/live.
func (r *Registry) LiveCounter(name string) *Counter {
	c := r.Counter(name)
	if c != nil {
		r.declare(&c.live, false)
	}
	return c
}

// declare marks a live metric's window slot: it gets its ring now if the
// registry keeps windows, else when KeepWindows is called.
func (r *Registry) declare(w *atomic.Pointer[ring], hist bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.declared != nil {
		r.declared[w] = hist
	} else if w.Load() == nil {
		w.Store(newRing(liveSlot, liveSlots, hist))
	}
}

// KeepWindows switches the registry's windows on: every metric declared
// live, before this call or after it, keeps its trailing minute from now
// on. Until then a registry holds no window. A reader calls it before it
// reads: the /debug/live handler that obshttp.Serve mounts, an in-process reader
// of LiveSnapshot.
func (r *Registry) KeepWindows() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for w, hist := range r.declared {
		w.Store(newRing(liveSlot, liveSlots, hist))
	}
	r.declared = nil
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, r.gauges, name, func() *Gauge { return &Gauge{} })
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
	return lookup(r, r.hists, name, newHistogram)
}

// LiveHistogram returns the named histogram — the same object Histogram
// returns — declared live, as LiveCounter declares a counter.
func (r *Registry) LiveHistogram(name string) *Histogram {
	h := r.Histogram(name)
	if h != nil {
		r.declare(&h.live, true)
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
}

// Snapshot captures every metric's total. Gauge callbacks are evaluated
// while the registry lock is held read-only; they must not call back into
// the registry.
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
	return s
}

// LiveSnapshot is the /debug/live payload: the trailing-window view of
// every metric that keeps one (none before KeepWindows), so pollers
// (ppbench top) get current rates without the cumulative bulk.
type LiveSnapshot struct {
	Name       string                    `json:"name"`
	TakenAt    time.Time                 `json:"taken_at"`
	Counters   map[string]WindowSnapshot `json:"counters"`
	Histograms map[string]WindowSnapshot `json:"histograms"`
}

// LiveSnapshot captures the windows of the live metrics.
func (r *Registry) LiveSnapshot() LiveSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := LiveSnapshot{
		Name:       r.name,
		TakenAt:    time.Now().UTC(),
		Counters:   map[string]WindowSnapshot{},
		Histograms: map[string]WindowSnapshot{},
	}
	for name, c := range r.counters {
		if w := c.live.Load(); w != nil {
			s.Counters[name] = w.snapshot()
		}
	}
	for name, h := range r.hists {
		if w := h.live.Load(); w != nil {
			s.Histograms[name] = w.snapshot()
		}
	}
	return s
}
