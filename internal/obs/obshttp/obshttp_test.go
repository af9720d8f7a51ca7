package obshttp

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ppstream/internal/obs"
)

func TestHandlerServesSnapshotAndPprof(t *testing.T) {
	reg := obs.NewRegistry("unit")
	reg.Counter("requests").Add(5)
	reg.Histogram("stage.encrypt.busy").Observe(3 * time.Millisecond)

	srv := httptest.NewServer(handler(Options{}, reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Name != "unit" || snap.Counters["requests"] != 5 {
		t.Errorf("snapshot %+v", snap)
	}
	h, ok := snap.Histograms["stage.encrypt.busy"]
	if !ok || h.Count != 1 || h.P50 <= 0 {
		t.Errorf("histogram snapshot %+v (ok=%v)", h, ok)
	}

	pp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, pp.Body)
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/: %d", pp.StatusCode)
	}
}

// TestHandlerHealth: /healthz is liveness, /readyz follows Ready, and
// /metrics has one encoding — a format query or a text Accept header
// still gets the JSON snapshot.
func TestHandlerHealth(t *testing.T) {
	reg := obs.NewRegistry("unit")
	reg.Counter("requests").Add(5)
	ready := false
	srv := httptest.NewServer(handler(Options{Ready: func() bool { return ready }}, reg))
	defer srv.Close()

	get := func(path string, hdr map[string]string) (int, string, string) {
		t.Helper()
		req, err := http.NewRequest("GET", srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	for _, c := range []struct {
		path string
		hdr  map[string]string
	}{
		{"/metrics?format=prometheus", nil},
		{"/metrics", map[string]string{"Accept": "text/plain;version=0.0.4"}},
	} {
		code, body, ct := get(c.path, c.hdr)
		var snap obs.Snapshot
		if code != http.StatusOK || ct != "application/json" || json.Unmarshal([]byte(body), &snap) != nil || snap.Counters["requests"] != 5 {
			t.Errorf("GET %s %v: %d %q, want the JSON snapshot:\n%s", c.path, c.hdr, code, ct, body)
		}
	}
	if code, _, _ := get("/metrics/prometheus", nil); code != http.StatusNotFound {
		t.Errorf("GET /metrics/prometheus: %d, want 404", code)
	}

	if code, body, _ := get("/healthz", nil); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("GET /healthz: %d %q", code, body)
	}
	if code, _, _ := get("/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("GET /readyz before ready: %d, want 503", code)
	}
	ready = true
	if code, _, _ := get("/readyz", nil); code != http.StatusOK {
		t.Errorf("GET /readyz after ready: %d, want 200", code)
	}
}

func TestServeBindsAndShutsDown(t *testing.T) {
	reg := obs.NewRegistry("serve")
	addr, shutdown, err := Serve("127.0.0.1:0", Options{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /metrics via Serve: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
