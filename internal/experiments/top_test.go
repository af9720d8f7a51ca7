package experiments

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ppstream/internal/obs"
)

// topSnapshot builds a serving-plane-shaped registry snapshot.
func topSnapshot(requests uint64) obs.Snapshot {
	reg := obs.NewRegistry("ppserver-test")
	reg.Counter("serve.requests.ok").Add(requests)
	reg.Counter("rounds.served").Add(2 * requests)
	obs.AddCostToRegistry(reg, "")(obs.CostStats{ModExps: 10 * requests, MulMods: 50 * requests})
	reg.Histogram("round.latency").Observe(3 * time.Millisecond)
	return reg.Snapshot()
}

func TestTopRendersFramesAndRates(t *testing.T) {
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls++
		snap := topSnapshot(uint64(10 * calls))
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(snap); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()

	var out strings.Builder
	err := Top(&out, TopOptions{
		Addr:       strings.TrimPrefix(srv.URL, "http://"),
		Every:      time.Millisecond,
		Iterations: 2,
		Client:     srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"ppserver-test", "serve.requests.ok", "crypto cost:", "modexps", "mulmods", "round.latency"} {
		if !strings.Contains(got, want) {
			t.Errorf("top output missing %q:\n%s", want, got)
		}
	}
	// Second frame shows a rate against the first.
	if !strings.Contains(got, "/s)") {
		t.Errorf("top output shows no per-second rates:\n%s", got)
	}
}

func TestTopToleratesOneFetchFailure(t *testing.T) {
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls++
		if calls == 1 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		if err := json.NewEncoder(w).Encode(topSnapshot(5)); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()

	var out strings.Builder
	err := Top(&out, TopOptions{
		Addr:       strings.TrimPrefix(srv.URL, "http://"),
		Every:      time.Millisecond,
		Iterations: 2,
		Client:     srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "retrying") || !strings.Contains(out.String(), "ppserver-test") {
		t.Errorf("top did not recover from a transient failure:\n%s", out.String())
	}
}

func TestTopFailsAfterConsecutiveErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	var out strings.Builder
	err := Top(&out, TopOptions{
		Addr:       strings.TrimPrefix(srv.URL, "http://"),
		Every:      time.Millisecond,
		Iterations: 5,
		Client:     srv.Client(),
	})
	if err == nil {
		t.Fatal("top kept polling a dead endpoint")
	}
}
