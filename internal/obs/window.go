package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file holds the windowed-metric family: counters and histograms
// that answer "what is happening NOW" instead of "what has happened
// since boot". Each metric is a ring of fixed-duration time buckets;
// observations land in the bucket covering the current instant with a
// couple of atomic operations, and a reader merges the trailing buckets
// into a rate or a latency distribution over the last W seconds. The
// family generalizes the Shedder's private p95 ring (which now uses it)
// and backs /debug/live, the SLO burn-rate engine, and `ppbench top`'s
// rate columns.
//
// Consistency model matches Histogram: writers never block readers and
// vice versa; a snapshot taken concurrently with writers may lag a few
// in-flight observations, and an observation racing a bucket rotation
// may be attributed to the neighbouring bucket. Both are irrelevant at
// monitoring granularity.

// Default live-window geometry used by Registry.LiveCounter and
// Registry.LiveHistogram: 60 one-second buckets, so /debug/live answers
// "the last minute" with one-second resolution.
const (
	DefaultLiveBucket  = time.Second
	DefaultLiveBuckets = 60
)

// windowEpochs computes the bucket-start epoch and ring index for an
// instant.
func windowEpoch(nanos, width int64, buckets int) (epoch int64, idx int) {
	slot := nanos / width
	return slot * width, int(slot % int64(buckets))
}

// WindowedCounter counts events over a sliding time window: a ring of
// fixed-duration buckets, each an atomic counter tagged with the bucket
// start it currently represents. The hot path (Add within the current
// bucket) is two atomic operations; a mutex is taken only when a bucket
// rotates to a new epoch, roughly once per bucket width.
type WindowedCounter struct {
	width   int64 // bucket duration, nanoseconds
	buckets []windowBucket

	rotate sync.Mutex
	now    func() time.Time
}

type windowBucket struct {
	epoch atomic.Int64 // bucket start, unix nanos; 0 = never used
	n     atomic.Uint64
	sum   atomic.Int64 // histograms only: sum of observed nanos
}

// NewWindowedCounter creates a counter spanning width×buckets. Non-
// positive arguments take the Default-Live geometry.
func NewWindowedCounter(width time.Duration, buckets int) *WindowedCounter {
	if width <= 0 {
		width = DefaultLiveBucket
	}
	if buckets <= 0 {
		buckets = DefaultLiveBuckets
	}
	return &WindowedCounter{
		width:   int64(width),
		buckets: make([]windowBucket, buckets),
		now:     time.Now,
	}
}

// SetClock replaces the counter's time source — a test hook so window
// expiry is exercised without sleeping. Not for production use.
func (w *WindowedCounter) SetClock(now func() time.Time) {
	if w != nil {
		w.now = now
	}
}

// Window returns the counter's total span.
func (w *WindowedCounter) Window() time.Duration {
	if w == nil {
		return 0
	}
	return time.Duration(w.width * int64(len(w.buckets)))
}

// bucketFor returns the ring bucket covering instant t, rotating it to
// t's epoch if it still holds an older window's counts.
func (w *WindowedCounter) bucketFor(nanos int64) *windowBucket {
	epoch, idx := windowEpoch(nanos, w.width, len(w.buckets))
	b := &w.buckets[idx]
	if b.epoch.Load() == epoch {
		return b
	}
	w.rotate.Lock()
	defer w.rotate.Unlock()
	if b.epoch.Load() != epoch {
		// Zero first, publish the epoch last: fast-path writers spin into
		// the mutex until the bucket is visibly current, so no count is
		// added to a half-reset bucket.
		b.n.Store(0)
		b.sum.Store(0)
		b.epoch.Store(epoch)
	}
	return b
}

// Add counts n events at the current instant.
func (w *WindowedCounter) Add(n uint64) {
	if w == nil {
		return
	}
	w.bucketFor(w.now().UnixNano()).n.Add(n)
}

// Inc counts one event.
func (w *WindowedCounter) Inc() { w.Add(1) }

// Value returns the event count over the counter's full window.
func (w *WindowedCounter) Value() uint64 { return w.ValueOver(w.Window()) }

// ValueOver returns the event count over the trailing duration d
// (clamped to the window). A bucket contributes when any part of it
// overlaps (now-d, now].
func (w *WindowedCounter) ValueOver(d time.Duration) uint64 {
	if w == nil {
		return 0
	}
	if d <= 0 || d > w.Window() {
		d = w.Window()
	}
	now := w.now().UnixNano()
	lo := now - int64(d)
	var total uint64
	for i := range w.buckets {
		b := &w.buckets[i]
		e := b.epoch.Load()
		if e == 0 || e > now || e+w.width <= lo {
			continue
		}
		total += b.n.Load()
	}
	return total
}

// Rate returns events per second over the trailing duration d.
func (w *WindowedCounter) Rate(d time.Duration) float64 {
	if w == nil {
		return 0
	}
	if d <= 0 || d > w.Window() {
		d = w.Window()
	}
	return float64(w.ValueOver(d)) / d.Seconds()
}

// WindowedCounterSnapshot is the JSON view of a windowed counter.
type WindowedCounterSnapshot struct {
	Window time.Duration `json:"window_ns"`
	Count  uint64        `json:"count"`
	// Rate is events per second over the window.
	Rate float64 `json:"rate"`
}

// Snapshot summarizes the full window.
func (w *WindowedCounter) Snapshot() WindowedCounterSnapshot {
	if w == nil {
		return WindowedCounterSnapshot{}
	}
	win := w.Window()
	n := w.ValueOver(win)
	return WindowedCounterSnapshot{Window: win, Count: n, Rate: float64(n) / win.Seconds()}
}

// WindowedHistogram is a latency distribution over a sliding time
// window: a ring of time buckets, each holding a fixed-bound value
// histogram (the same exponential bounds as Histogram). Observe is a
// handful of atomic operations in the common case; quantiles are
// computed by merging the trailing buckets' counts.
type WindowedHistogram struct {
	width   int64
	bounds  []int64
	buckets []windowHistBucket

	rotate sync.Mutex
	now    func() time.Time
}

type windowHistBucket struct {
	epoch atomic.Int64
	n     atomic.Uint64
	sum   atomic.Int64
	vals  []atomic.Uint64 // len(bounds)+1, last is overflow
}

// NewWindowedHistogram creates a histogram spanning width×buckets with
// the default exponential bounds. Non-positive arguments take the
// Default-Live geometry.
func NewWindowedHistogram(width time.Duration, buckets int) *WindowedHistogram {
	if width <= 0 {
		width = DefaultLiveBucket
	}
	if buckets <= 0 {
		buckets = DefaultLiveBuckets
	}
	h := &WindowedHistogram{
		width:   int64(width),
		bounds:  defaultBounds,
		buckets: make([]windowHistBucket, buckets),
		now:     time.Now,
	}
	for i := range h.buckets {
		h.buckets[i].vals = make([]atomic.Uint64, len(h.bounds)+1)
	}
	return h
}

// SetClock replaces the histogram's time source — a test hook so window
// expiry is exercised without sleeping. Not for production use.
func (h *WindowedHistogram) SetClock(now func() time.Time) {
	if h != nil {
		h.now = now
	}
}

// Window returns the histogram's total span.
func (h *WindowedHistogram) Window() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.width * int64(len(h.buckets)))
}

func (h *WindowedHistogram) bucketFor(nanos int64) *windowHistBucket {
	epoch, idx := windowEpoch(nanos, h.width, len(h.buckets))
	b := &h.buckets[idx]
	if b.epoch.Load() == epoch {
		return b
	}
	h.rotate.Lock()
	defer h.rotate.Unlock()
	if b.epoch.Load() != epoch {
		b.n.Store(0)
		b.sum.Store(0)
		for i := range b.vals {
			b.vals[i].Store(0)
		}
		b.epoch.Store(epoch)
	}
	return b
}

// Observe records one duration at the current instant.
func (h *WindowedHistogram) Observe(d time.Duration) { h.ObserveNanos(d.Nanoseconds()) }

// ObserveNanos records one duration given in nanoseconds.
func (h *WindowedHistogram) ObserveNanos(v int64) {
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
	b := h.bucketFor(h.now().UnixNano())
	b.vals[i].Add(1)
	b.n.Add(1)
	b.sum.Add(v)
}

// merge collects the trailing-d value-bucket counts, total, and sum.
func (h *WindowedHistogram) merge(d time.Duration) (counts []uint64, total uint64, sum int64) {
	if h == nil {
		return nil, 0, 0
	}
	if d <= 0 || d > h.Window() {
		d = h.Window()
	}
	now := h.now().UnixNano()
	lo := now - int64(d)
	counts = make([]uint64, len(h.bounds)+1)
	for i := range h.buckets {
		b := &h.buckets[i]
		e := b.epoch.Load()
		if e == 0 || e > now || e+h.width <= lo {
			continue
		}
		for j := range counts {
			counts[j] += b.vals[j].Load()
		}
		total += b.n.Load()
		sum += b.sum.Load()
	}
	return counts, total, sum
}

// CountOver returns the observation count over the trailing duration d.
func (h *WindowedHistogram) CountOver(d time.Duration) uint64 {
	_, total, _ := h.merge(d)
	return total
}

// QuantileOver estimates the q-th quantile of observations in the
// trailing duration d by interpolation within the fixed bounds. Zero
// when the window holds no observations.
func (h *WindowedHistogram) QuantileOver(d time.Duration, q float64) time.Duration {
	counts, total, _ := h.merge(d)
	if total == 0 {
		return 0
	}
	hi := h.bounds[len(h.bounds)-1]
	return quantileFromCounts(h.bounds, counts, total, 0, hi, q)
}

// WindowedHistogramSnapshot is the JSON view of a windowed latency
// distribution. Durations marshal as integer nanoseconds.
type WindowedHistogramSnapshot struct {
	Window time.Duration `json:"window_ns"`
	Count  uint64        `json:"count"`
	// Rate is observations per second over the window.
	Rate float64       `json:"rate"`
	Mean time.Duration `json:"mean_ns"`
	P50  time.Duration `json:"p50_ns"`
	P95  time.Duration `json:"p95_ns"`
	P99  time.Duration `json:"p99_ns"`
}

// Snapshot summarizes the full window. Empty windows yield the zero
// snapshot (with the window span filled in).
func (h *WindowedHistogram) Snapshot() WindowedHistogramSnapshot {
	return h.SnapshotOver(h.Window())
}

// SnapshotOver summarizes the trailing duration d.
func (h *WindowedHistogram) SnapshotOver(d time.Duration) WindowedHistogramSnapshot {
	if d <= 0 || d > h.Window() {
		d = h.Window()
	}
	counts, total, sum := h.merge(d)
	s := WindowedHistogramSnapshot{Window: d}
	if total == 0 {
		return s
	}
	hi := h.bounds[len(h.bounds)-1]
	s.Count = total
	s.Rate = float64(total) / d.Seconds()
	s.Mean = time.Duration(sum / int64(total))
	s.P50 = quantileFromCounts(h.bounds, counts, total, 0, hi, 0.50)
	s.P95 = quantileFromCounts(h.bounds, counts, total, 0, hi, 0.95)
	s.P99 = quantileFromCounts(h.bounds, counts, total, 0, hi, 0.99)
	return s
}
