package obshttp

import (
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ppstream/internal/obs"
)

// testTree is a two-segment request record of the given total.
func testTree(id string, total time.Duration) *obs.TraceTree {
	return &obs.TraceTree{
		ID:    id,
		Total: total,
		Segments: []obs.Segment{
			{Party: "client", Name: "encrypt", Round: -1, Dur: total / 2},
			{Party: "server", Name: "kernel", Round: 0, Dur: total / 2},
		},
	}
}

// TestHandlerLiveEndpoints drives /debug/live, /debug/slo, and
// /debug/traces through the HTTP mux, including query-parameter
// validation. The live metrics are declared before the mux is built and
// written after it: building the mux switches the windows on.
func TestHandlerLiveEndpoints(t *testing.T) {
	reg := obs.NewRegistry("srv")
	ok, lat := reg.LiveCounter("serve.requests.ok"), reg.LiveHistogram("serve.latency")

	slo, err := obs.NewSLOEngine(obs.SLOConfig{Specs: []obs.SLOSpec{{Name: "avail", Objective: 0.999}}})
	if err != nil {
		t.Fatal(err)
	}
	slo.Observe(time.Millisecond, false)
	slo.Observe(0, true)

	traces, err := obs.NewTraceStore(obs.TraceStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	traces.Record(testTree("t-slow", 80*time.Millisecond), nil, nil)
	traces.Record(testTree("t-err", time.Millisecond), nil, errors.New("boom"))

	srv := httptest.NewServer(handler(Options{Traces: traces, SLO: slo}, reg))
	defer srv.Close()
	ok.Add(3)
	lat.Observe(4 * time.Millisecond)
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}

	code, body := get("/debug/live")
	if code != 200 {
		t.Fatalf("/debug/live status %d", code)
	}
	var live obs.LiveSnapshot
	if err := json.Unmarshal(body, &live); err != nil {
		t.Fatalf("/debug/live payload: %v", err)
	}
	if live.Counters["serve.requests.ok"].Count != 3 || live.Histograms["serve.latency"].Count != 1 {
		t.Errorf("/debug/live snapshot %+v", live)
	}
	// /metrics serves totals only: the windows live at /debug/live.
	if _, body := get("/metrics"); strings.Contains(string(body), "live_") {
		t.Errorf("/metrics carries live sections:\n%s", body)
	}

	code, body = get("/debug/slo")
	if code != 200 {
		t.Fatalf("/debug/slo status %d", code)
	}
	var statuses []obs.SLOStatus
	if err := json.Unmarshal(body, &statuses); err != nil {
		t.Fatalf("/debug/slo payload: %v", err)
	}
	if len(statuses) != 1 || statuses[0].Name != "avail" || statuses[0].Windows[0].Bad != 1 {
		t.Errorf("/debug/slo %+v", statuses)
	}

	code, body = get("/debug/traces?min_ms=50")
	if code != 200 {
		t.Fatalf("/debug/traces status %d", code)
	}
	var recs []obs.TraceRecord
	if err := json.Unmarshal(body, &recs); err != nil {
		t.Fatalf("/debug/traces payload: %v", err)
	}
	if len(recs) != 1 || recs[0].Trace.ID != "t-slow" {
		t.Errorf("/debug/traces min_ms %+v", recs)
	}

	if code, _ := get("/debug/traces?id=t-err&since=10m"); code != 200 {
		t.Errorf("since=10m status %d", code)
	}
	for _, bad := range []string{"since=yesterday", "min_ms=-1", "limit=0", "limit=x"} {
		if code, _ := get("/debug/traces?" + bad); code != 400 {
			t.Errorf("%s status %d, want 400", bad, code)
		}
	}
}

// TestFlightHTTPNotMountedWithoutRecorder: /debug/flight is gone, and
// /debug/traces exists only with a store behind it.
func TestFlightHTTPNotMountedWithoutRecorder(t *testing.T) {
	handler := handler(Options{}, obs.NewRegistry("no-store"))
	for _, path := range []string{"/debug/flight", "/debug/traces"} {
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 404 {
			t.Errorf("%s without a store: status %d, want 404", path, rr.Code)
		}
	}
}
