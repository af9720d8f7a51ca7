package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHandlerServesSnapshotAndPprof(t *testing.T) {
	reg := NewRegistry("unit")
	reg.Counter("requests").Add(5)
	reg.Histogram("stage.encrypt.busy").Observe(3 * time.Millisecond)

	srv := httptest.NewServer(Handler(HTTPOptions{}, reg))
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
	var snap Snapshot
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

func TestHandlerPrometheusAndHealth(t *testing.T) {
	reg := NewRegistry("unit")
	reg.Counter("requests").Add(5)
	ready := false
	srv := httptest.NewServer(Handler(HTTPOptions{Ready: func() bool { return ready }}, reg))
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

	// Dedicated Prometheus path and ?format= both serve text format.
	for _, path := range []string{"/metrics/prometheus", "/metrics?format=prometheus"} {
		code, body, ct := get(path, nil)
		if code != http.StatusOK || !strings.Contains(body, `ppstream_requests{registry="unit"} 5`) {
			t.Errorf("GET %s: %d\n%s", path, code, body)
		}
		if !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("GET %s content type %q", path, ct)
		}
	}
	// A Prometheus scraper's Accept header selects text format on /metrics.
	if _, body, _ := get("/metrics", map[string]string{
		"Accept": "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5",
	}); !strings.Contains(body, "ppstream_requests") {
		t.Errorf("Accept negotiation did not yield Prometheus format:\n%s", body)
	}
	// No Accept header stays JSON (back-compat for curl and the cmd tools).
	if _, body, ct := get("/metrics", nil); !strings.Contains(ct, "json") || !strings.Contains(body, `"counters"`) {
		t.Errorf("default /metrics no longer JSON (ct %q):\n%s", ct, body)
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
	reg := NewRegistry("serve")
	addr, shutdown, err := Serve("127.0.0.1:0", HTTPOptions{}, reg)
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
