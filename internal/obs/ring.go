package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file holds the one sliding-window implementation: a ring of
// fixed-duration time slots, each stamped with the epoch it currently
// covers. A write lands in the slot covering the present instant with a
// couple of atomic operations; a reader sums the slots overlapping the
// trailing window. A Counter or Histogram declared live carries one on a
// registry that something reads live (Registry.KeepWindows: the last
// minute in one-second slots), and so do the SLO engine's good/bad counts
// and the shedder's latency window, each with a geometry of its own.
//
// Consistency matches the cumulative metrics: writers never block
// readers; a read concurrent with writers may lag a few in-flight
// observations, and an observation racing a rotation may land in the
// neighbouring slot. A slot straddling the window edge counts fully.

// Live-view geometry: the last minute at one-second resolution.
const (
	liveSlot  = time.Second
	liveSlots = 60
)

type ring struct {
	width  int64 // slot duration, nanoseconds
	slots  []ringSlot
	rotate sync.Mutex
	now    func() time.Time
}

type ringSlot struct {
	epoch atomic.Int64 // slot start, unix nanos; 0 = never used
	n     atomic.Uint64
	vals  []atomic.Uint64 // histogram rings: counts per defaultBounds bucket
}

// newRing spans width×slots; a histogram ring also counts each slot's
// observations per latency bucket.
func newRing(width time.Duration, slots int, hist bool) *ring {
	r := &ring{width: int64(width), slots: make([]ringSlot, slots), now: time.Now}
	if hist {
		for i := range r.slots {
			r.slots[i].vals = make([]atomic.Uint64, len(defaultBounds)+1)
		}
	}
	return r
}

func (r *ring) span() time.Duration { return time.Duration(r.width * int64(len(r.slots))) }

// current returns the slot covering the present instant, rotating it to
// the present epoch if it still holds an older one's counts. The mutex is
// taken only on rotation, about once per slot width.
func (r *ring) current() *ringSlot {
	idx := r.now().UnixNano() / r.width
	s := &r.slots[idx%int64(len(r.slots))]
	epoch := idx * r.width
	if s.epoch.Load() == epoch {
		return s
	}
	r.rotate.Lock()
	defer r.rotate.Unlock()
	if s.epoch.Load() != epoch {
		// Zero first, publish the epoch last: writers on the fast path take
		// the slot as current only once it is empty.
		s.n.Store(0)
		for i := range s.vals {
			s.vals[i].Store(0)
		}
		s.epoch.Store(epoch)
	}
	return s
}

func (r *ring) add(n uint64) { r.current().n.Add(n) }

// observe records one latency that falls in defaultBounds bucket b.
func (r *ring) observe(b int) {
	s := r.current()
	s.vals[b].Add(1)
	s.n.Add(1)
}

// over sums the slots overlapping the trailing d (clamped to the span):
// the count and, for a histogram ring, the per-bucket counts.
func (r *ring) over(d time.Duration) (n uint64, vals []uint64) {
	if d <= 0 || d > r.span() {
		d = r.span()
	}
	now := r.now().UnixNano()
	lo := now - int64(d)
	if len(r.slots[0].vals) > 0 {
		vals = make([]uint64, len(r.slots[0].vals))
	}
	for i := range r.slots {
		s := &r.slots[i]
		if e := s.epoch.Load(); e == 0 || e > now || e+r.width <= lo {
			continue
		}
		n += s.n.Load()
		for j := range vals {
			vals[j] += s.vals[j].Load()
		}
	}
	return n, vals
}

// WindowSnapshot is the trailing-window view of a live metric, the
// /debug/live payload. Durations marshal as integer nanoseconds; the
// latency fields stay zero for counters.
type WindowSnapshot struct {
	Window time.Duration `json:"window_ns"`
	Count  uint64        `json:"count"`
	// Rate is events per second over the window.
	Rate float64       `json:"rate"`
	P50  time.Duration `json:"p50_ns,omitempty"`
	P95  time.Duration `json:"p95_ns,omitempty"`
	P99  time.Duration `json:"p99_ns,omitempty"`
}

// snapshot summarizes the full span; a nil ring (a metric without a
// window) reads as zero.
func (r *ring) snapshot() WindowSnapshot {
	if r == nil {
		return WindowSnapshot{}
	}
	n, vals := r.over(0)
	s := WindowSnapshot{Window: r.span(), Count: n, Rate: float64(n) / r.span().Seconds()}
	if n > 0 && vals != nil {
		// Slots keep no min/max: the quantiles clamp to the bounds' range.
		s.P50, s.P95, s.P99 = quantiles(vals, n, 0, defaultBounds[len(defaultBounds)-1])
	}
	return s
}
