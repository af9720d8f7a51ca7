package experiments

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ppstream/internal/obs"
)

// TestSwarmSmoke runs the open-loop load harness once in quick mode and
// lets its own invariants gate: a knee must appear, the fast burn-rate
// alert must fire under the overload points, and the slowest request's
// merged trace must be retained. Under -race this exercises the whole
// serving plane concurrently — Poisson arrival goroutines, shedder,
// limiter, SLO engine, trace store, and windowed metrics.
func TestSwarmSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("swarm harness in -short mode")
	}
	res, err := Swarm(quickCfg())
	if err != nil {
		t.Fatalf("%v\n%s", err, res.Render())
	}
	if res.KneeIndex < 0 {
		t.Error("no knee detected")
	}
	if !res.FastAlertFired {
		t.Error("fast burn-rate alert did not fire under overload")
	}
	if !res.SlowTraceRetained || res.SlowTraceID == "" {
		t.Errorf("slow trace not retained: %+v", res.SlowTraceID)
	}
	if res.LiveChecked && res.LiveOK != res.CumulativeOK {
		t.Errorf("live ok %d != cumulative ok %d", res.LiveOK, res.CumulativeOK)
	}

	// The retained slow trace is retrievable over the wire: mount the
	// harness's trace store behind /debug/traces and pull the full merged
	// tree back out, exactly as an operator would.
	srv := httptest.NewServer(obs.HandlerOpts(obs.HTTPOptions{Traces: res.Traces}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/traces?id=" + res.SlowTraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/traces status %d: %s", resp.StatusCode, body)
	}
	var recs []obs.TraceRecord
	if err := json.Unmarshal(body, &recs); err != nil {
		t.Fatalf("/debug/traces payload: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("slow trace query returned no records")
	}
	// Both sides may have retained the same ID (the server keeps its own
	// view, the client the merged one) — the merged client+server tree
	// must be among them.
	merged := false
	for _, rec := range recs {
		if rec.Trace == nil || rec.Trace.ID != res.SlowTraceID {
			t.Fatalf("ID query returned foreign record %+v", rec)
		}
		parties := map[string]bool{}
		for _, seg := range rec.Trace.Segments {
			parties[seg.Party] = true
		}
		if rec.Trace.Total > 0 && parties["client"] && parties["server"] {
			merged = true
		}
	}
	if !merged {
		t.Errorf("no merged client+server tree among %d records for %s", len(recs), res.SlowTraceID)
	}

	out := res.Render()
	for _, want := range []string{"offered/s", "<- knee", "slo ", "slow trace retained: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	t.Log("\n" + out)
}

// TestSwarmValidate: one row per invariant the gate decides on, over a
// synthetic sweep, so each condition fails a unit test rather than only
// a CI run of the harness.
func TestSwarmValidate(t *testing.T) {
	healthy := func() *SwarmResult {
		return &SwarmResult{
			Points: []SwarmPoint{
				{Offered: 10, Arrivals: 24, Completed: 24, Achieved: 10},
				{Offered: 50, Arrivals: 24, Completed: 24, Achieved: 48},
				{Offered: 400, Arrivals: 48, Completed: 20, Rejected: 28, Achieved: 90},
			},
			KneeIndex: 2, KneeOffered: 400,
			FastAlertFired:    true,
			SlowTraceRetained: true, SlowTraceID: "t-slow",
			LiveOK: 68, CumulativeOK: 68, LiveChecked: true,
		}
	}
	for _, tc := range []struct {
		name    string
		mutate  func(*SwarmResult)
		wantErr string // substring; "" = the run passes
	}{
		{"healthy", func(*SwarmResult) {}, ""},
		{"nothing completed", func(r *SwarmResult) {
			for i := range r.Points {
				r.Points[i].Completed = 0
			}
		}, "completed no requests"},
		{"fewer than three points", func(r *SwarmResult) { r.Points, r.KneeIndex = r.Points[1:], 1 }, "need at least 3"},
		{"no knee", func(r *SwarmResult) { r.KneeIndex = -1 }, "no knee"},
		{"alert not fired", func(r *SwarmResult) { r.FastAlertFired = false }, "did not trip"},
		{"alert before the knee", func(r *SwarmResult) { r.FastAlertBeforeKnee = true }, "before the knee"},
		// The first point failing to keep up is the knee; an alert after
		// it fired at the knee and is not a false positive.
		{"alert at a knee on point 0", func(r *SwarmResult) { r.KneeIndex, r.FastAlertBeforeKnee = 0, true }, ""},
		{"slow trace not retained", func(r *SwarmResult) { r.SlowTraceRetained, r.SlowTraceID = false, "" }, "no slow merged trace"},
		{"slow trace without an ID", func(r *SwarmResult) { r.SlowTraceID = "" }, "no slow merged trace"},
		{"live disagrees with cumulative", func(r *SwarmResult) { r.LiveOK-- }, "disagrees with cumulative"},
		{"run outlived the live window", func(r *SwarmResult) { r.LiveOK, r.LiveChecked = 3, false }, ""},
	} {
		r := healthy()
		tc.mutate(r)
		checkVerdict(t, tc.name, r.swarmValidate(), tc.wantErr)
	}
}

// TestRenderTraceRecords: the ppbench traces table lists every record
// and expands the slowest retained tree.
func TestRenderTraceRecords(t *testing.T) {
	if out := RenderTraceRecords(nil); !strings.Contains(out, "no retained traces") {
		t.Errorf("empty render:\n%s", out)
	}
	recs := []obs.TraceRecord{
		{
			When:   time.Unix(1_700_000_000, 0).UTC(),
			Reason: obs.TraceKeptError,
			Err:    "deadline exceeded",
			Trace: &obs.TraceTree{ID: "t-err", Total: 2 * time.Millisecond, Segments: []obs.Segment{
				{Party: "client", Name: "encrypt", Round: -1, Dur: 2 * time.Millisecond},
			}},
		},
		{
			When:   time.Unix(1_700_000_001, 0).UTC(),
			Reason: obs.TraceKeptSlow,
			Trace: &obs.TraceTree{ID: "t-slow", Total: 90 * time.Millisecond, Segments: []obs.Segment{
				{Party: "client", Name: "encrypt", Round: -1, Dur: 40 * time.Millisecond},
				{Party: "server", Name: "kernel", Round: 0, Dur: 50 * time.Millisecond},
			}},
		},
	}
	out := RenderTraceRecords(recs)
	for _, want := range []string{"t-err", "t-slow", "deadline exceeded", "slowest retained (t-slow)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
