// Package obs is PP-Stream's observability layer: lock-cheap metric
// primitives (counters, gauges, fixed-bucket latency histograms) grouped
// in named registries, whose JSON snapshots the HTTP exposition endpoint
// (package obshttp) serves beside pprof. The stream runtime, the protocol
// session layer, and the core engine all publish here, so every
// deployment — in-process pipeline or distributed ppserver — can be
// profiled the way the paper's Tables IV–VI break latency down per stage.
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
// operations and never allocates. One with a window (NewLiveHistogram,
// or Registry.LiveHistogram on a registry that keeps windows) also keeps
// its trailing window, fed by the same Observe.
type Histogram struct {
	buckets []atomic.Uint64 // per defaultBounds; the last is the overflow
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	live    atomic.Pointer[ring]
}

// newHistogram creates a histogram with the default exponential bounds
// (1µs … ~34s, ×2 per bucket).
func newHistogram() *Histogram {
	h := &Histogram{buckets: make([]atomic.Uint64, len(defaultBounds)+1)}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// NewLiveHistogram is newHistogram with a trailing window of width×slots
// on the clock now — the shedder's latency window, whose geometry and
// clock are its own.
func NewLiveHistogram(width time.Duration, slots int, now func() time.Time) *Histogram {
	h := newHistogram()
	w := newRing(width, slots, true)
	w.now = now
	h.live.Store(w)
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	v := d.Nanoseconds()
	if v < 0 {
		v = 0
	}
	i := 0
	for i < len(defaultBounds) && v > defaultBounds[i] {
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
	if w := h.live.Load(); w != nil {
		w.observe(i)
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

// Snapshot summarizes the histogram since it was created. An empty
// histogram yields the zero snapshot.
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
	lo, hi := h.min.Load(), h.max.Load()
	s := HistogramSnapshot{
		Count: n,
		Sum:   time.Duration(h.sum.Load()),
		Min:   time.Duration(lo),
		Max:   time.Duration(hi),
		Mean:  time.Duration(h.sum.Load() / int64(n)),
	}
	s.P50, s.P95, s.P99 = quantiles(counts, total, lo, hi)
	return s
}

// Live summarizes the trailing window; zero for a histogram without one.
func (h *Histogram) Live() WindowSnapshot {
	if h == nil {
		return WindowSnapshot{}
	}
	return h.live.Load().snapshot()
}

// quantiles estimates p50/p95/p99 from per-bucket counts over
// defaultBounds (the last count is the overflow bucket), interpolating
// linearly within the bucket holding each and clamping to [lo, hi], so
// no estimate is a bucket bound that no observation reached.
func quantiles(counts []uint64, total uint64, lo, hi int64) (p50, p95, p99 time.Duration) {
	return quantile(counts, total, lo, hi, 0.50), quantile(counts, total, lo, hi, 0.95),
		quantile(counts, total, lo, hi, 0.99)
}

func quantile(counts []uint64, total uint64, lo, hi int64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		cum += float64(c)
		if cum < target || c == 0 {
			continue
		}
		from, to := int64(0), hi
		if i > 0 {
			from = defaultBounds[i-1]
		}
		if i < len(defaultBounds) && defaultBounds[i] < hi {
			to = defaultBounds[i]
		}
		from = max(from, lo)
		to = max(to, from)
		// Position of the target within this bucket's observations.
		frac := 1 - (cum-target)/float64(c)
		return time.Duration(float64(from) + frac*float64(to-from))
	}
	return time.Duration(hi)
}
