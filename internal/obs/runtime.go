package obs

import (
	"runtime"
	"sync"
	"time"
)

// memSampler caches runtime.ReadMemStats between snapshot evaluations:
// the heap and GC gauges registered below would otherwise each pay the
// stop-the-world read on every snapshot.
type memSampler struct {
	mu    sync.Mutex
	at    time.Time
	stats runtime.MemStats
}

// memSampleTTL bounds how stale a cached MemStats read may be.
const memSampleTTL = time.Second

func (s *memSampler) read(f func(*runtime.MemStats) int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now := time.Now(); now.Sub(s.at) > memSampleTTL {
		runtime.ReadMemStats(&s.stats)
		s.at = now
	}
	return f(&s.stats)
}

// RegisterRuntimeMetrics publishes Go runtime health gauges into reg,
// evaluated lazily at snapshot time:
//
//	runtime.goroutines          live goroutine count
//	runtime.heap_alloc_bytes    bytes of allocated heap objects
//	runtime.gc_pause_total_ns   cumulative stop-the-world pause time
//
// MemStats reads are cached for a second so frequent /metrics polls stay cheap.
func RegisterRuntimeMetrics(reg *Registry) {
	if reg == nil {
		return
	}
	s := &memSampler{}
	reg.GaugeFunc("runtime.goroutines", func() int64 { return int64(runtime.NumGoroutine()) })
	reg.GaugeFunc("runtime.heap_alloc_bytes", func() int64 {
		return s.read(func(m *runtime.MemStats) int64 { return int64(m.HeapAlloc) })
	})
	reg.GaugeFunc("runtime.gc_pause_total_ns", func() int64 {
		return s.read(func(m *runtime.MemStats) int64 { return int64(m.PauseTotalNs) })
	})
}
