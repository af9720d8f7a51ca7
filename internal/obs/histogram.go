// Package obs is PP-Stream's observability layer: lock-cheap metric
// primitives (counters, gauges, fixed-bucket latency histograms) grouped
// in named registries, plus an HTTP exposition endpoint serving JSON
// snapshots and pprof. The stream runtime, the protocol session layer,
// and the core engine all publish here, so every deployment — in-process
// pipeline or distributed ppserver — can be profiled the way the paper's
// Tables IV–VI break latency down per stage.
//
// All write paths are single atomic operations (no locks, no
// allocation), so instrumenting the pipeline hot path costs nanoseconds.
// Snapshots are taken concurrently with writers and are therefore
// weakly consistent: bucket counts, sums, and totals may each lag a few
// in-flight observations, which is irrelevant for latency percentiles.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// defaultBounds are the histogram bucket upper bounds in nanoseconds:
// powers of two from 1µs to ~34s (36 buckets), plus an implicit
// overflow bucket. This covers everything from a single modular
// multiplication to a full VGG inference round.
var defaultBounds = func() []int64 {
	bounds := make([]int64, 36)
	b := int64(time.Microsecond)
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}()

// Histogram is a fixed-bucket latency histogram safe for concurrent use.
// Observations are clamped at zero; Observe is a handful of atomic
// operations and never allocates.
type Histogram struct {
	bounds  []int64 // ascending upper bounds (ns); last bucket is +Inf
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
}

// NewHistogram creates a histogram with the default exponential bounds
// (1µs … ~34s, ×2 per bucket).
func NewHistogram() *Histogram {
	h := &Histogram{bounds: defaultBounds, buckets: make([]atomic.Uint64, len(defaultBounds)+1)}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNanos(d.Nanoseconds()) }

// ObserveNanos records one duration given in nanoseconds.
func (h *Histogram) ObserveNanos(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time summary. Durations marshal to
// JSON as integer nanoseconds.
type HistogramSnapshot struct {
	Count uint64        `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// Snapshot summarizes the histogram. An empty histogram yields the zero
// snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	n := h.count.Load()
	if n == 0 {
		return HistogramSnapshot{}
	}
	counts := make([]uint64, len(h.buckets))
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	min, max := h.min.Load(), h.max.Load()
	s := HistogramSnapshot{
		Count: n,
		Sum:   time.Duration(h.sum.Load()),
		Min:   time.Duration(min),
		Max:   time.Duration(max),
		Mean:  time.Duration(h.sum.Load() / int64(n)),
	}
	s.P50 = h.quantile(counts, total, min, max, 0.50)
	s.P95 = h.quantile(counts, total, min, max, 0.95)
	s.P99 = h.quantile(counts, total, min, max, 0.99)
	return s
}

// Quantile estimates the q-th quantile (0 < q ≤ 1) by linear
// interpolation within the bucket containing it, clamped to the observed
// min/max. An empty histogram yields 0 for every q, as do NaN requests;
// q outside (0, 1] is clamped into the range, so callers can never read
// a bucket upper bound that no sample actually reached.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	counts := make([]uint64, len(h.buckets))
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	return h.quantile(counts, total, h.min.Load(), h.max.Load(), q)
}

func (h *Histogram) quantile(counts []uint64, total uint64, min, max int64, q float64) time.Duration {
	return quantileFromCounts(h.bounds, counts, total, min, max, q)
}

// quantileFromCounts estimates the q-th quantile from per-bucket counts
// over ascending upper bounds (the last count is the overflow bucket).
// Shared by Histogram and WindowedHistogram.
func quantileFromCounts(bounds []int64, counts []uint64, total uint64, min, max int64, q float64) time.Duration {
	if total == 0 || math.IsNaN(q) {
		return 0
	}
	if q > 1 {
		q = 1
	}
	if q <= 0 {
		// q→0⁺ is the distribution's lower edge.
		return time.Duration(min)
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		cum += float64(c)
		if cum < target || c == 0 {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := max
		if i < len(bounds) && bounds[i] < max {
			hi = bounds[i]
		}
		if lo < min {
			lo = min
		}
		if hi < lo {
			hi = lo
		}
		// Position of the target within this bucket's observations.
		frac := 1 - (cum-target)/float64(c)
		v := float64(lo) + frac*float64(hi-lo)
		return time.Duration(int64(v))
	}
	return time.Duration(max)
}
