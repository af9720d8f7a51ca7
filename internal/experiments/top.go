package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"ppstream/internal/obs"
)

// This file implements `ppbench top`: a live console view over a running
// ppserver's /metrics endpoint. Each tick fetches the JSON snapshot,
// diffs the cumulative counters against the previous tick, and renders
// the serving plane's vitals — request/round throughput, crypto-op rates
// from the cost meter, and the per-stage/per-round latency percentiles —
// without attaching a debugger or scraping Prometheus.
//
// When the server also exposes /debug/live (the windowed-metric
// snapshot), its last-minute rates and latency percentiles are rendered
// as a "live" section — truer than diffing cumulative counters, which
// smears bursts across the poll interval. Servers predating the live
// plane simply lack the endpoint; the fetch failure is silent and the
// cumulative diff remains the whole frame.

// TopOptions configures the live metrics view.
type TopOptions struct {
	// Addr is the metrics endpoint's host:port (ppserver -metrics).
	Addr string
	// Every is the poll interval. Non-positive defaults to 2s.
	Every time.Duration
	// Iterations bounds how many frames are rendered; 0 runs forever.
	Iterations int
	// Client overrides the HTTP client (tests). Nil uses a 5s-timeout
	// default.
	Client *http.Client
}

// Top polls addr's /metrics endpoint and writes one frame per tick to w.
// It returns when Iterations frames have rendered or a fetch fails twice
// in a row (one transient failure is reported and tolerated).
func Top(w io.Writer, opts TopOptions) error {
	if opts.Every <= 0 {
		opts.Every = 2 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	url := "http://" + opts.Addr + "/metrics?format=json"
	liveURL := "http://" + opts.Addr + "/debug/live"
	var prev *obs.Snapshot
	failures := 0
	for frame := 0; opts.Iterations == 0 || frame < opts.Iterations; frame++ {
		if frame > 0 {
			time.Sleep(opts.Every)
		}
		snap, err := fetchRegistry(client, url, func(s *obs.Snapshot) bool { return s.Name != "" || len(s.Counters) > 0 })
		if err != nil {
			failures++
			if failures >= 2 {
				return fmt.Errorf("experiments: metrics fetch failed twice: %w", err)
			}
			fmt.Fprintf(w, "[fetch failed, retrying: %v]\n", err)
			continue
		}
		failures = 0
		// Best-effort: older servers have no /debug/live; fall back to
		// the cumulative-diff rates alone.
		live, _ := fetchRegistry(client, liveURL, func(s *obs.LiveSnapshot) bool { return s.Name != "" || len(s.Counters) > 0 })
		fmt.Fprint(w, renderTopFrame(snap, prev, live, opts.Every))
		prev = snap
	}
	return nil
}

// getBody fetches url and returns at most limit bytes of a 200 response.
func getBody(client *http.Client, url string, limit int64) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, limit))
}

// fetchRegistry fetches and decodes one registry's snapshot (cumulative
// or windowed). A multi-registry endpoint returns an array; the first
// registry wins. named tells a decoded snapshot from the zero value the
// array form leaves behind.
func fetchRegistry[T any](client *http.Client, url string, named func(*T) bool) (*T, error) {
	data, err := getBody(client, url, 16<<20)
	if err != nil {
		return nil, err
	}
	var one T
	if err := json.Unmarshal(data, &one); err == nil && named(&one) {
		return &one, nil
	}
	var many []T
	if err := json.Unmarshal(data, &many); err != nil || len(many) == 0 {
		return nil, fmt.Errorf("unrecognized payload from %s (%d bytes)", url, len(data))
	}
	return &many[0], nil
}

// counterRate renders a cumulative counter as total plus per-second rate
// against the previous frame.
func counterRate(name string, cur *obs.Snapshot, prev *obs.Snapshot, every time.Duration) string {
	v := cur.Counters[name]
	if prev == nil {
		return fmt.Sprintf("%d", v)
	}
	d := v - prev.Counters[name]
	return fmt.Sprintf("%d (+%.1f/s)", v, float64(d)/every.Seconds())
}

// renderTopFrame formats one tick: throughput counters, crypto-op rates,
// and latency histograms, each sorted for stable output, plus the
// windowed last-minute section when the server exposes /debug/live.
func renderTopFrame(cur, prev *obs.Snapshot, live *obs.LiveSnapshot, every time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s @ %s ===\n", cur.Name, cur.TakenAt.Format("15:04:05"))

	if live != nil && (len(live.Counters) > 0 || len(live.Histograms) > 0) {
		b.WriteString("  live (last minute):\n")
		var names []string
		for name := range live.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c := live.Counters[name]
			fmt.Fprintf(&b, "    %-24s %d (%.1f/s)\n", name, c.Count, c.Rate)
		}
		names = names[:0]
		for name := range live.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h := live.Histograms[name]
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "    %-24s %.1f/s  %s / %s / %s  (n=%d)\n",
				name, h.Rate, fmtDur(h.P50), fmtDur(h.P95), fmtDur(h.P99), h.Count)
		}
	}

	serving := []string{"sessions.total", "requests.completed", "requests.evicted", "rounds.served", "rounds.errors"}
	for _, name := range serving {
		if _, ok := cur.Counters[name]; ok {
			fmt.Fprintf(&b, "  %-24s %s\n", name, counterRate(name, cur, prev, every))
		}
	}

	var costNames []string
	for name := range cur.Counters {
		if strings.HasPrefix(name, "cost.") {
			costNames = append(costNames, name)
		}
	}
	if len(costNames) > 0 {
		sort.Strings(costNames)
		b.WriteString("  crypto cost:\n")
		for _, name := range costNames {
			fmt.Fprintf(&b, "    %-24s %s\n", strings.TrimPrefix(name, "cost."), counterRate(name, cur, prev, every))
		}
	}

	var histNames []string
	for name := range cur.Histograms {
		histNames = append(histNames, name)
	}
	if len(histNames) > 0 {
		sort.Strings(histNames)
		b.WriteString("  latency (p50/p95/p99):\n")
		for _, name := range histNames {
			h := cur.Histograms[name]
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "    %-24s %s / %s / %s  (n=%d)\n",
				name, fmtDur(h.P50), fmtDur(h.P95), fmtDur(h.P99), h.Count)
		}
	}
	return b.String()
}
