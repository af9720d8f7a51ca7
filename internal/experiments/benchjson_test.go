package experiments

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ppstream/internal/obs"
)

func TestBenchJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	res := &KernelResult{Reps: 2, Shapes: []KernelShape{{
		Rows: 32, Cols: 128,
		Series: []KernelRow{{KeyBits: 256, Kernel: 5 * time.Millisecond, Ref: 20 * time.Millisecond, Strategy: "tables"}},
	}}}
	host := BenchHost{GOOS: "linux", GOARCH: "amd64", NumCPU: 4}
	path, err := WriteBenchJSON(dir, "kernel", Config{KeyBits: 256}.withDefaults(), host, res)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_kernel.json" {
		t.Errorf("artifact name = %s, want BENCH_kernel.json", filepath.Base(path))
	}
	rec, err := ReadBenchJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != BenchRecordVersion || rec.Bench != "kernel" {
		t.Errorf("envelope = version %d bench %q", rec.Version, rec.Bench)
	}
	if rec.Host != host {
		t.Errorf("host = %+v, want %+v", rec.Host, host)
	}
	if rec.Config.KeyBits != 256 {
		t.Errorf("config keybits = %d", rec.Config.KeyBits)
	}
	result, ok := rec.Result.(map[string]any)
	if !ok {
		t.Fatalf("result decoded as %T", rec.Result)
	}
	shapes, ok := result["Shapes"].([]any)
	if !ok || len(shapes) != 1 {
		t.Fatalf("shapes lost in round trip: %v", result["Shapes"])
	}
	if series, ok := shapes[0].(map[string]any)["Series"].([]any); !ok || len(series) != 1 {
		t.Fatalf("series lost in round trip: %v", shapes[0])
	}
	// No temp litter from the atomic write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("dir holds %d files after write, want 1", len(entries))
	}
}

func TestReadBenchJSONRejectsWrongVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := os.WriteFile(path, []byte(`{"version": 999, "bench": "x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchJSON(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong-version record accepted: %v", err)
	}
}

// topSnapshot builds a serving-plane-shaped registry snapshot.
func topSnapshot(requests uint64) obs.Snapshot {
	reg := obs.NewRegistry("ppserver-test")
	reg.Counter("requests.completed").Add(requests)
	reg.Counter("rounds.served").Add(2 * requests)
	obs.AddCostToRegistry(reg, obs.CostStats{ModExps: 10 * requests, MulMods: 50 * requests})
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
	for _, want := range []string{"ppserver-test", "requests.completed", "crypto cost:", "modexps", "mulmods", "round.latency"} {
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
