package obs

import (
	"sync"
	"testing"
	"time"
)

// fixedClock returns a settable clock starting at a fixed instant.
func fixedClock() (*time.Time, func() time.Time) {
	now := time.Unix(1_700_000_000, 0)
	return &now, func() time.Time { return now }
}

// TestWindowedCounterExpiry: counts age out of the trailing window as
// the clock moves, unlike a cumulative total.
func TestWindowedCounterExpiry(t *testing.T) {
	w := newRing(time.Second, 4, false)
	now, clock := fixedClock()
	w.now = clock

	w.add(3)
	*now = now.Add(time.Second)
	w.add(2)
	if n, _ := w.over(0); n != 5 {
		t.Errorf("full window value %d, want 5", n)
	}
	// One more second on: a trailing 1s query no longer overlaps the
	// first slot (slots overlapping the window edge count fully, so we
	// step clear of the boundary); a trailing 2s one still overlaps both.
	*now = now.Add(time.Second)
	if n, _ := w.over(time.Second); n != 2 {
		t.Errorf("1s value %d, want 2", n)
	}
	if n, _ := w.over(2 * time.Second); n != 5 {
		t.Errorf("2s value %d, want 5", n)
	}
	if s := w.snapshot(); s.Count != 5 || s.Rate != 1.25 {
		t.Errorf("snapshot %+v, want 5 events at 1.25/s over 4s", s)
	}
	// Move past the full span: everything expires.
	*now = now.Add(5 * time.Second)
	if s := w.snapshot(); s.Window != 4*time.Second || s.Count != 0 {
		t.Errorf("snapshot after expiry %+v", s)
	}
}

// TestWindowedCounterRotationReuse: a ring slot revisited in a later
// epoch must start from zero, not resurrect the old epoch's count.
func TestWindowedCounterRotationReuse(t *testing.T) {
	w := newRing(time.Second, 2, false)
	now, clock := fixedClock()
	w.now = clock
	w.add(100)
	// Two seconds later the same slot covers a new epoch; its first use
	// must rotate the stale 100 away before counting.
	*now = now.Add(2 * time.Second)
	w.add(1)
	if n, _ := w.over(0); n != 1 {
		t.Errorf("value after slot reuse %d, want 1", n)
	}
}

// TestWindowedHistogramQuantiles: a histogram's live view reflects only
// the in-window observations and expires with the clock, while its total
// keeps everything.
func TestWindowedHistogramQuantiles(t *testing.T) {
	now, clock := fixedClock()
	h := NewLiveHistogram(time.Second, 10, clock)

	for i := 0; i < 95; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		h.Observe(200 * time.Millisecond)
	}
	// p50 lands in the 1ms region, p99 in the 200ms region. The ×2
	// exponential bounds make estimates coarse: accept up to one bucket
	// of overestimation.
	s := h.Live()
	if s.Count != 100 || s.Rate != 10 {
		t.Errorf("snapshot %+v", s)
	}
	if s.P50 <= 0 || s.P50 > 3*time.Millisecond {
		t.Errorf("p50 %v outside (0, 3ms]", s.P50)
	}
	if s.P99 < 100*time.Millisecond || s.P99 > 500*time.Millisecond {
		t.Errorf("p99 %v outside [100ms, 500ms]", s.P99)
	}

	// Slow evidence ages out: 11s on, only fresh fast observations remain
	// in the window; the total still counts all of them.
	*now = now.Add(11 * time.Second)
	h.Observe(time.Millisecond)
	if s := h.Live(); s.Count != 1 || s.P99 > 3*time.Millisecond {
		t.Errorf("window after expiry %+v, want the one fast observation", s)
	}
	if n := h.Snapshot().Count; n != 101 {
		t.Errorf("total %d, want 101", n)
	}
}

// TestWindowedEmpty: zero-observation live metrics answer zero over the
// live geometry's full minute.
func TestWindowedEmpty(t *testing.T) {
	reg := NewRegistry("empty")
	reg.KeepWindows()
	reg.LiveCounter("c")
	reg.LiveHistogram("h")
	live := reg.LiveSnapshot()
	for _, s := range []WindowSnapshot{live.Counters["c"], live.Histograms["h"]} {
		if s != (WindowSnapshot{Window: liveSlot * liveSlots}) {
			t.Errorf("empty live view %+v", s)
		}
	}
	// A metric without a live view reads as zero, window included.
	if s := reg.Histogram("plain").Live(); s != (WindowSnapshot{}) {
		t.Errorf("histogram without a live view %+v", s)
	}
}

// TestWindowedConcurrent hammers writers, a shared cost fold and readers
// together while the registry's windows are switched on and a metric is
// declared live; run under -race this is the lock-free hot path's
// correctness check.
func TestWindowedConcurrent(t *testing.T) {
	reg := NewRegistry("race")
	c := reg.LiveCounter("c")
	h := NewLiveHistogram(time.Millisecond, 8, time.Now)
	fold := AddCostToRegistry(reg, "ss_gc")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reg.KeepWindows()
		reg.LiveHistogram("late").Observe(time.Microsecond)
	}()
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(time.Microsecond)
					fold(CostStats{ModExps: 1})
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Live()
					reg.LiveSnapshot()
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestRegistryLiveViews: a live metric is the same object as its
// cumulative namesake — one write feeds the total (/metrics) and the
// window (/debug/live). Until KeepWindows nothing has a window; after it,
// every metric declared live, before or after the call, has one, and a
// metric never declared live still has none.
func TestRegistryLiveViews(t *testing.T) {
	reg := NewRegistry("live")
	if reg.LiveCounter("a") != reg.Counter("a") || reg.LiveCounter("a") != reg.LiveCounter("a") {
		t.Error("LiveCounter is not the counter of that name")
	}
	if reg.LiveHistogram("b") != reg.Histogram("b") {
		t.Error("LiveHistogram is not the histogram of that name")
	}
	reg.Counter("a").Inc()
	reg.Histogram("b").Observe(time.Millisecond)
	if s := reg.LiveSnapshot(); len(s.Counters)+len(s.Histograms) != 0 || reg.Counter("a").live.Load() != nil {
		t.Errorf("a registry nobody reads live keeps windows: %+v", s)
	}
	reg.KeepWindows()
	reg.Counter("a").Add(3)
	reg.Histogram("b").Observe(2 * time.Millisecond)
	reg.LiveCounter("late").Inc()
	reg.Counter("cumulative-only").Inc()
	snap := reg.Snapshot()
	if snap.Counters["a"] != 4 || snap.Histograms["b"].Count != 2 {
		t.Errorf("totals %+v", snap)
	}
	live := reg.LiveSnapshot()
	if live.Name != "live" || live.Counters["a"].Count != 3 || live.Histograms["b"].Count != 1 || live.Counters["late"].Count != 1 {
		t.Errorf("live snapshot %+v, want a 3, b 1, late 1", live)
	}
	if _, ok := live.Counters["cumulative-only"]; ok || len(live.Counters) != 2 {
		t.Errorf("a counter never registered live has a window: %+v", live.Counters)
	}
}
