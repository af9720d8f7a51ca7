package obs

import (
	"encoding/json"
	"testing"
)

// TestRegisterRuntimeMetrics: the runtime gauges reach the registry's
// JSON snapshot, the one ppserver's /metrics serves and CI reads.
func TestRegisterRuntimeMetrics(t *testing.T) {
	reg := NewRegistry("rt")
	RegisterRuntimeMetrics(reg)
	raw, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("snapshot payload: %v", err)
	}
	if s.Gauges["runtime.goroutines"] < 1 {
		t.Errorf("goroutines gauge %d", s.Gauges["runtime.goroutines"])
	}
	if s.Gauges["runtime.heap_alloc_bytes"] <= 0 {
		t.Errorf("heap gauge %d", s.Gauges["runtime.heap_alloc_bytes"])
	}
	if _, ok := s.Gauges["runtime.gc_pause_total_ns"]; !ok {
		t.Error("gc pause gauge missing")
	}
	RegisterRuntimeMetrics(nil) // must not panic
}
