package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// Uniform 1µs..1000µs: p50 ≈ 500µs, p99 ≈ 990µs.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count %d, want 1000", s.Count)
	}
	if s.Min != time.Microsecond {
		t.Errorf("min %v, want 1µs", s.Min)
	}
	if s.Max != 1000*time.Microsecond {
		t.Errorf("max %v, want 1000µs", s.Max)
	}
	wantMean := time.Duration(500500) * time.Nanosecond / 1 // (1+..+1000)/1000 µs = 500.5µs
	if diff := s.Mean - wantMean; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("mean %v, want ≈%v", s.Mean, wantMean)
	}
	within := func(got, want time.Duration, tol float64) bool {
		lo := time.Duration(float64(want) * (1 - tol))
		hi := time.Duration(float64(want) * (1 + tol))
		return got >= lo && got <= hi
	}
	if !within(s.P50, 500*time.Microsecond, 0.25) {
		t.Errorf("p50 %v, want ≈500µs", s.P50)
	}
	if !within(s.P95, 950*time.Microsecond, 0.25) {
		t.Errorf("p95 %v, want ≈950µs", s.P95)
	}
	if !within(s.P99, 990*time.Microsecond, 0.25) {
		t.Errorf("p99 %v, want ≈990µs", s.P99)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v max=%v", s.P50, s.P95, s.P99, s.Max)
	}
}

func TestHistogramEmptyAndClamped(t *testing.T) {
	h := NewHistogram()
	if s := h.Snapshot(); s.Count != 0 || s.P99 != 0 {
		t.Errorf("empty histogram snapshot not zero: %+v", s)
	}
	h.Observe(-5 * time.Second) // clamped to zero
	if s := h.Snapshot(); s.Count != 1 || s.Min != 0 {
		t.Errorf("negative observation not clamped: %+v", s)
	}
	// Overflow bucket: far beyond the last bound.
	h2 := NewHistogram()
	h2.Observe(10 * time.Minute)
	if s := h2.Snapshot(); s.Max != 10*time.Minute || s.P99 != 10*time.Minute {
		t.Errorf("overflow observation mishandled: %+v", s)
	}
}

// TestHistogramDegenerateQuantiles covers the empty and single-bucket
// report paths: no sample may ever surface as a bucket upper bound.
func TestHistogramDegenerateQuantiles(t *testing.T) {
	// Empty histogram: every quantile is 0, not a bucket bound.
	h := NewHistogram()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}

	// Single sample: all percentiles collapse to the sample itself,
	// even though its bucket's upper bound is 4ms.
	h = NewHistogram()
	const v = 2500 * time.Microsecond
	h.Observe(v)
	s := h.Snapshot()
	if s.P50 != v || s.P95 != v || s.P99 != v {
		t.Errorf("single-sample percentiles %v/%v/%v, want all %v", s.P50, s.P95, s.P99, v)
	}
	if got := h.Quantile(1); got != v {
		t.Errorf("single-sample Quantile(1) = %v, want %v", got, v)
	}

	// Single-bucket pile-up of identical values: the min/max clamp keeps
	// interpolation at the observed value, not the bucket bound.
	h = NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(3 * time.Millisecond)
	}
	s = h.Snapshot()
	if s.P50 != 3*time.Millisecond || s.P99 != 3*time.Millisecond {
		t.Errorf("single-bucket percentiles p50=%v p99=%v, want 3ms", s.P50, s.P99)
	}
}

// TestHistogramQuantileEdgeInputs checks that out-of-range and NaN
// quantile requests stay finite and ordered.
func TestHistogramQuantileEdgeInputs(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	h.Observe(9 * time.Millisecond)
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Errorf("Quantile(NaN) = %v, want 0", got)
	}
	if got := h.Quantile(-0.5); got != time.Millisecond {
		t.Errorf("Quantile(-0.5) = %v, want min 1ms", got)
	}
	if got := h.Quantile(2); got < time.Millisecond || got > 9*time.Millisecond {
		t.Errorf("Quantile(2) = %v, want within [min,max]", got)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 1} {
		got := h.Quantile(q)
		if got < time.Millisecond || got > 9*time.Millisecond {
			t.Errorf("Quantile(%v) = %v escaped [min,max]", q, got)
		}
	}
}

// TestHistogramConcurrency hammers one histogram from parallel writers
// while readers snapshot it; run with -race.
func TestHistogramConcurrency(t *testing.T) {
	h := NewHistogram()
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Snapshot()
				}
			}
		}()
	}
	var writeWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(w*perWriter+i) * time.Nanosecond)
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	wg.Wait()
	if got := h.Snapshot().Count; got != writers*perWriter {
		t.Errorf("count %d, want %d", got, writers*perWriter)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry("test")
	if r.Counter("c") != r.Counter("c") {
		t.Error("Counter did not return the same instance")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge did not return the same instance")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram did not return the same instance")
	}
	r.Counter("c").Add(3)
	r.Gauge("g").Set(-7)
	r.GaugeFunc("fn", func() int64 { return 42 })
	r.Histogram("h").Observe(time.Millisecond)
	s := r.Snapshot()
	if s.Name != "test" {
		t.Errorf("snapshot name %q", s.Name)
	}
	if s.Counters["c"] != 3 {
		t.Errorf("counter %d, want 3", s.Counters["c"])
	}
	if s.Gauges["g"] != -7 || s.Gauges["fn"] != 42 {
		t.Errorf("gauges %v", s.Gauges)
	}
	if s.Histograms["h"].Count != 1 {
		t.Errorf("histogram count %d, want 1", s.Histograms["h"].Count)
	}
}

// TestRegistryConcurrency creates and updates metrics from many
// goroutines while snapshots are taken; run with -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry("race")
	names := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				n := names[(w+i)%len(names)]
				r.Counter(n).Inc()
				r.Gauge(n).Add(1)
				r.Histogram(n).Observe(time.Duration(i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	var total uint64
	for _, n := range names {
		total += s.Counters[n]
	}
	if total != 8*2000 {
		t.Errorf("total counter %d, want %d", total, 8*2000)
	}
}

// TestNilRegistryMetricsAreNoOps: a nil Registry hands out nil metrics, and
// every method of every one of them — writers and readers — is a no-op
// returning zero, so unobserved code paths need no guards.
func TestNilRegistryMetricsAreNoOps(t *testing.T) {
	var r *Registry
	r.GaugeFunc("f", func() int64 { return 1 })

	c := r.Counter("c")
	c.Inc()
	c.Add(2)
	g := r.Gauge("g")
	g.Set(3)
	g.Add(1)
	h := r.Histogram("h")
	h.Observe(time.Millisecond)
	h.ObserveNanos(5)
	if c.Value() != 0 || g.Value() != 0 || h.Quantile(0.5) != 0 || h.Snapshot() != (HistogramSnapshot{}) {
		t.Error("nil cumulative metrics must read as zero")
	}

	lc := r.LiveCounter("lc")
	lc.SetClock(time.Now)
	lc.Inc()
	lc.Add(2)
	if lc.Window() != 0 || lc.Value() != 0 || lc.ValueOver(time.Second) != 0 ||
		lc.Rate(time.Second) != 0 || lc.Snapshot() != (WindowedCounterSnapshot{}) {
		t.Error("nil windowed counter must read as zero")
	}

	lh := r.LiveHistogram("lh")
	lh.SetClock(time.Now)
	lh.Observe(time.Millisecond)
	lh.ObserveNanos(5)
	if lh.Window() != 0 || lh.CountOver(time.Second) != 0 || lh.QuantileOver(time.Second, 0.5) != 0 ||
		lh.Snapshot() != (WindowedHistogramSnapshot{}) || lh.SnapshotOver(time.Second) != (WindowedHistogramSnapshot{}) {
		t.Error("nil windowed histogram must read as zero")
	}
}
