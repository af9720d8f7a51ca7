package obs

import (
	"strings"
	"testing"
	"time"
)

func TestParseSLOSpecs(t *testing.T) {
	specs, err := ParseSLOSpecs("p99=250ms, avail=99.9")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs", len(specs))
	}
	if specs[0].Name != "p99" || specs[0].Objective != 0.99 || specs[0].LatencyTarget != 250*time.Millisecond {
		t.Errorf("latency spec %+v", specs[0])
	}
	if specs[1].Name != "avail" || specs[1].Objective < 0.9989 || specs[1].Objective > 0.9991 || specs[1].LatencyTarget != 0 {
		t.Errorf("availability spec %+v", specs[1])
	}

	for _, bad := range []string{
		"", "p99", "p99=", "p99=fast", "p0=1s", "p100=1s",
		"avail=0", "avail=100", "avail=x", "uptime=99", "p99=250ms,p99=1s",
	} {
		if _, err := ParseSLOSpecs(bad); err == nil {
			t.Errorf("ParseSLOSpecs(%q) accepted", bad)
		}
	}
}

// TestSLOBurnMath pins the burn-rate arithmetic: burn = (bad/total) /
// (1 - objective).
func TestSLOBurnMath(t *testing.T) {
	e, err := NewSLOEngine(SLOConfig{
		Specs: []SLOSpec{{Name: "avail", Objective: 0.99}},
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	setSLOClock(e, func() time.Time { return now })
	for i := 0; i < 90; i++ {
		e.Observe(time.Millisecond, false)
	}
	for i := 0; i < 10; i++ {
		e.Observe(0, true)
	}
	st := e.Evaluate()[0]
	// 10% bad against a 1% budget: burn 10 in every window.
	for _, wnd := range st.Windows {
		if wnd.Good != 90 || wnd.Bad != 10 {
			t.Errorf("window %v counts %d/%d", wnd.Window, wnd.Good, wnd.Bad)
		}
		if wnd.Burn < 9.99 || wnd.Burn > 10.01 {
			t.Errorf("window %v burn %v, want 10", wnd.Window, wnd.Burn)
		}
	}
	if st.FastAlert {
		t.Error("burn 10 < 14.4 must not fast-alert")
	}
	if !st.SlowAlert {
		t.Error("burn 10 >= 6 must slow-alert")
	}
}

// TestSLOLatencyObjective: slow-but-successful requests are bad under a
// latency objective, good under availability.
func TestSLOLatencyObjective(t *testing.T) {
	e, err := NewSLOEngine(SLOConfig{Specs: []SLOSpec{
		{Name: "p99", Objective: 0.99, LatencyTarget: 100 * time.Millisecond},
		{Name: "avail", Objective: 0.99},
	}})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	setSLOClock(e, func() time.Time { return now })
	e.Observe(500*time.Millisecond, false) // slow success
	e.Observe(time.Millisecond, false)     // fast success
	statuses := e.Evaluate()
	byName := map[string]SLOStatus{}
	for _, st := range statuses {
		byName[st.Name] = st
	}
	if got := byName["p99"].Windows[0]; got.Bad != 1 || got.Good != 1 {
		t.Errorf("latency objective counts %+v", got)
	}
	if got := byName["avail"].Windows[0]; got.Bad != 0 || got.Good != 2 {
		t.Errorf("availability objective counts %+v", got)
	}
}

// TestSLOFastAlertLifecycle: a latency spike trips the fast alert (all
// traffic inside both fast windows), and the alert clears once the bad
// observations age past the long fast window.
func TestSLOFastAlertLifecycle(t *testing.T) {
	reg := NewRegistry("slo")
	e, err := NewSLOEngine(SLOConfig{
		Specs:    []SLOSpec{{Name: "avail", Objective: 0.999}},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	setSLOClock(e, func() time.Time { return now })

	for i := 0; i < 10; i++ {
		e.Observe(time.Millisecond, false)
	}
	if e.Evaluate()[0].FastAlert {
		t.Fatal("healthy traffic fast-alerted")
	}
	// Spike: half the traffic fails. Burn = 0.5/0.001 = 500 >> 14.4 in
	// both fast windows.
	for i := 0; i < 10; i++ {
		e.Observe(0, true)
	}
	st := e.Evaluate()[0]
	if !st.FastAlert {
		t.Fatalf("spike did not fast-alert: %+v", st)
	}
	snap := reg.Snapshot()
	if snap.Gauges["slo.avail.alert.fast"] != 1 {
		t.Errorf("fast gauge %d, want 1", snap.Gauges["slo.avail.alert.fast"])
	}
	if snap.Gauges["slo.avail.burn_short_milli"] < 14400 {
		t.Errorf("burn gauge %d below threshold", snap.Gauges["slo.avail.burn_short_milli"])
	}
	// The budget heals: past the 1h fast-long window the alert clears.
	now = now.Add(sloFastLong + time.Minute)
	e.Observe(time.Millisecond, false)
	if st := e.Evaluate()[0]; st.FastAlert {
		t.Errorf("alert still firing after the window healed: %+v", st)
	}
}

func TestSLOEngineNilAndErrors(t *testing.T) {
	var e *SLOEngine
	e.Observe(time.Second, true) // must not panic
	if e.Evaluate() != nil {
		t.Error("nil engine evaluated non-nil")
	}
	if _, err := NewSLOEngine(SLOConfig{}); err == nil {
		t.Error("empty spec list accepted")
	}
	if _, err := NewSLOEngine(SLOConfig{Specs: []SLOSpec{{Name: "x", Objective: 1.5}}}); err == nil {
		t.Error("objective out of range accepted")
	}
	if _, err := NewSLOEngine(SLOConfig{Specs: []SLOSpec{
		{Name: "x", Objective: 0.9}, {Name: "x", Objective: 0.99},
	}}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate spec: %v", err)
	}
}

// setSLOClock replaces the engine's time source, so window expiry is
// exercised without sleeping.
func setSLOClock(e *SLOEngine, now func() time.Time) {
	for _, st := range e.states {
		st.good.now, st.bad.now = now, now
	}
}
