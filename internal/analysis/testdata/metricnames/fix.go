// Package obs is the metricnames fixture: a Registry shaped like the
// real one, and metric registrations in every grammar bucket.
package obs

// Counter is a stub metric.
type Counter struct{}

// Add is a stub.
func (c *Counter) Add(uint64) {}

// Gauge is a stub metric.
type Gauge struct{}

// Set is a stub.
func (g *Gauge) Set(int64) {}

// Histogram is a stub metric.
type Histogram struct{}

// Registry mirrors the real obs.Registry registration surface.
type Registry struct{}

// Counter registers a counter.
func (r *Registry) Counter(name string) *Counter { _ = name; return &Counter{} }

// Gauge registers a gauge.
func (r *Registry) Gauge(name string) *Gauge { _ = name; return &Gauge{} }

// GaugeFunc registers a callback gauge.
func (r *Registry) GaugeFunc(name string, f func() int64) { _, _ = name, f }

// Histogram registers a histogram.
func (r *Registry) Histogram(name string) *Histogram { _ = name; return &Histogram{} }

// NotARegistry has a Counter method too, but is not a Registry: the
// analyzer must leave it alone.
type NotARegistry struct{}

// Counter is a decoy.
func (n *NotARegistry) Counter(name string) *Counter { _ = name; return &Counter{} }

func registerAll(r *Registry, stage string) {
	r.Counter("rounds.served").Add(1)       // conformant
	r.Gauge("sessions.active").Set(2)       // conformant
	r.Histogram("round.linear")             // conformant
	r.GaugeFunc("queue.depth0", nil)        // conformant: digits allowed after the first rune
	r.Counter("Rounds.Served")              // want "metric name .Rounds.Served. is not lowercase dotted"
	r.Counter("rounds-served")              // want "metric name .rounds-served. is not lowercase dotted"
	r.Gauge("0rounds.served")               // want "metric name .0rounds.served. is not lowercase dotted"
	r.Histogram("stage." + stage + ".wait") // conformant: fragments are lowercase dotted
	r.Histogram("Stage." + stage + ".wait") // want "metric name fragment .Stage.. contains characters outside"
	decoy := &NotARegistry{}
	decoy.Counter("NOT.CHECKED") // decoy receiver: no diagnostic
}

func conflictingTypes(r *Registry) {
	r.Counter("queue.pending")
	r.Gauge("queue.pending") // want "registered as gauge here but as counter"
	//pplint:ignore metricnames demonstrating the suppressed form
	r.Gauge("rounds.served")
}
