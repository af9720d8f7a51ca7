package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ppstream/internal/protocol"
)

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the tables in this
// package from drifting apart: the driver reads the former, the program
// prints the latter.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q", i, got.Name, w.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, program has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}

// TestSmoke runs every workload for two requests per phase, untraced and
// traced: every output must match the oracle, every metric must be
// reported, and the traced pass must leave its span file behind.
func TestSmoke(t *testing.T) {
	protocol.RegisterServiceWire()
	ctx := context.Background()
	b := budget{requests: 2}
	o := options{seed: 1, trace: 1, outDir: t.TempDir()}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name == "mnist-fc-stream" {
				t.Skip("784 encryptions per request: skipped with -short")
			}
			in, err := prepare(w, o.seed)
			if err != nil {
				t.Fatal(err)
			}
			e, err := runEndToEnd(ctx, w, in, o.seed, b)
			if err != nil {
				t.Fatal(err)
			}
			if e.tally.sent != b.requests || e.tally.failed() != 0 {
				t.Errorf("untraced: %+v, first error %v", e.tally, e.firstErr)
			}
			for _, d := range endToEndMetrics {
				if e.metrics[d.name] <= 0 {
					t.Errorf("untraced: %s = %v, want > 0", d.name, e.metrics[d.name])
				}
			}
			rep, err := runTraced(ctx, w, in, o, b)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("traced: correct %v, failed %d of %d", rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(perLayerMetrics) {
				t.Errorf("traced: %d metrics reported, want %d", len(rep.Metrics), len(perLayerMetrics))
			}
			for _, name := range []string{"protocol.encrypt_ms", "protocol.linear_ms", "protocol.nonlinear_ms", "paillier.modexps_per_req"} {
				if rep.Metrics[name].Value <= 0 {
					t.Errorf("traced: %s = %v, want > 0", name, rep.Metrics[name].Value)
				}
			}
			if _, err := os.Stat(filepath.Join(o.outDir, "trace_"+w.name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestQuantileNearestRank(t *testing.T) {
	d := durations(10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
	if got := quantile(d, 0.5); got != 50 {
		t.Errorf("p50 = %d, want 50", got)
	}
	if got := quantile(d, 0.9); got != 90 {
		t.Errorf("p90 = %d, want 90", got)
	}
	if got := quantile(nil, 0.9); got != 0 {
		t.Errorf("empty p90 = %d, want 0", got)
	}
}

// TestGroupMedians checks that a disturbance confined to two of the five
// groups leaves all three numbers where an undisturbed phase puts them.
func TestGroupMedians(t *testing.T) {
	var s []sample
	var at time.Duration
	for i := 0; i < 50; i++ {
		lat := time.Duration(100+i%10) * time.Millisecond // 100..109 ms in every group
		if i >= 10 && i < 30 {
			lat *= 3
		}
		at += lat
		s = append(s, sample{at: at, latency: lat})
	}
	got := groupMedians(s)
	if want := 10 / 1.045; math.Abs(got.rps-want) > 1e-9 {
		t.Errorf("throughput = %v, want %v", got.rps, want)
	}
	if got.p50 != 104 || got.p90 != 108 {
		t.Errorf("p50, p90 = %v, %v, want 104, 108", got.p50, got.p90)
	}
	if whole := statsOf(s); math.Abs(whole.rps-50/at.Seconds()) > 1e-9 {
		t.Errorf("whole phase: throughput %v, want requests / elapsed = %v", whole.rps, 50/at.Seconds())
	}
	if got := groupMedians(nil); got != (loadStats{}) {
		t.Errorf("no samples: %+v, want zeros", got)
	}
}

// TestUndisturbed checks the yardstick's arithmetic: requests that ran
// while the bursts around them took twice refNominal come out at half
// their clocked time, and requests among bursts at refNominal unchanged.
func TestUndisturbed(t *testing.T) {
	y := &yardstick{}
	var s []sample
	var at time.Duration
	for i := 0; i < 40; i++ {
		slow := time.Duration(1)
		if i >= 20 {
			slow = 2
		}
		at += slow * refNominal
		y.bursts = append(y.bursts, burst{at: at, took: slow * refNominal})
		at += slow * 500 * time.Millisecond
		s = append(s, sample{at: at, latency: slow * 500 * time.Millisecond})
	}
	for i, x := range undisturbed(s, y) {
		// The requests either side of the change see bursts of both kinds.
		if i == 19 || i == 20 {
			continue
		}
		if x.latency != 500*time.Millisecond {
			t.Errorf("request %d: %v, want 500ms", i, x.latency)
		}
	}
	if got := y.slowdown(0, at); got != 1.5 {
		t.Errorf("slowdown over the whole phase = %v, want 1.5", got)
	}
	if got := (&yardstick{}).slowdown(0, at); got != 1 {
		t.Errorf("slowdown without bursts = %v, want 1", got)
	}
}

// TestSelfTime checks that a span's self time is its length minus what
// its children cover, and that the waterfall flags a request whose layers
// leave too much of it unaccounted for.
func TestSelfTime(t *testing.T) {
	r := newRecorder()
	add := func(parent int, name string, start, end int64) int {
		r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: 1, Name: name, StartNS: start, EndNS: end})
		return len(r.spans)
	}
	root := add(0, spanRequest, 0, 1000)
	lin := add(root, spanLinear, 100, 600)
	add(lin, spanKernel, 100, 400)
	add(lin, spanPermute, 400, 450)
	add(root, spanNonLinear, 600, 990)
	self := r.selfTimes()
	for i, want := range []int64{110, 150, 300, 50, 390} {
		if int64(self[i]) != want {
			t.Errorf("self[%s] = %d, want %d", r.spans[i].Name, self[i], want)
		}
	}
	if wf := r.buildWaterfall(); wf.OK || wf.Unattributed != 0.11 {
		t.Errorf("waterfall with 11%% unattributed: ok %v, unattributed %v", wf.OK, wf.Unattributed)
	}
	r.spans[0].StartNS = 95
	if wf := r.buildWaterfall(); !wf.OK {
		t.Errorf("waterfall with %.3f unattributed flagged", wf.Unattributed)
	}
}

func durations(ns ...int64) []time.Duration {
	out := make([]time.Duration, len(ns))
	for i, n := range ns {
		out[i] = time.Duration(n)
	}
	return out
}
