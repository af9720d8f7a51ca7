package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ppstream/internal/obs"
)

// Span names: one per layer boundary the step-by-step driver crosses.
const (
	spanRequest   = "request"            // root: one whole inference
	spanEncrypt   = "protocol.encrypt"   // DataProvider.EncryptMetered
	spanToWire    = "protocol.towire"    // protocol.ToWire
	spanSendRecv  = "stream.send_recv"   // Edge.Send until the peer's Edge.Recv returns
	spanFromWire  = "protocol.fromwire"  // protocol.FromWire
	spanLinear    = "protocol.linear"    // ModelProvider.ProcessLinearMetered
	spanKernel    = "backend.kernel"     // child of linear: LinearTiming.Kernel
	spanPermute   = "protocol.permute"   // child of linear: LinearTiming.Permute
	spanNonLinear = "protocol.nonlinear" // DataProvider.ProcessNonLinearMetered
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Req; Parent is the ID of the span
// that caused this one (0 for a request's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Party  string `json:"party"`
	// Round is the protocol round, -1 for request-scoped spans.
	Round   int    `json:"round"`
	Backend string `json:"backend,omitempty"`
	// StartNS and EndNS count from the start of the traced pass.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Placed marks a span whose duration was measured inside the program
	// (LinearTiming) and whose start was placed by the benchmark at the
	// start of its parent: its length is real, its position is not.
	Placed bool `json:"placed,omitempty"`
	// Cost is the obs.CostMeter delta over the call.
	Cost *obs.CostStats `json:"cost,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps the spans of a traced pass in memory until the pass
// ends. Only the step-by-step driver writes to it, from one goroutine. A
// nil recorder records nothing, which is how the driver runs bare.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its ID (0 from a nil recorder).
func (r *recorder) begin(parent, req int, name, party string, round int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Party: party, Round: round,
		StartNS: int64(time.Since(r.origin)),
	})
	return len(r.spans)
}

// end closes the span and returns it for annotation (nil from a nil
// recorder).
func (r *recorder) end(id int) *span {
	if r == nil {
		return nil
	}
	s := &r.spans[id-1]
	s.EndNS = int64(time.Since(r.origin))
	return s
}

// place adds a child of known duration at offset from its parent's start.
func (r *recorder) place(parent *span, name string, offset, dur time.Duration) {
	if r == nil {
		return
	}
	start := parent.StartNS + int64(offset)
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent.ID, Req: parent.Req, Name: name, Party: parent.Party,
		Round: parent.Round, Backend: parent.Backend, StartNS: start, EndNS: start + int64(dur), Placed: true,
	})
}

// selfTimes returns, per span, its duration minus the part its children
// cover. The driver's children never overlap each other, so that part is
// the sum of their lengths, clipped to the parent.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i := range r.spans {
		self[i] = r.spans[i].dur()
	}
	for i := range r.spans {
		if p := r.spans[i].Parent; p != 0 {
			self[p-1] -= r.spans[i].dur()
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// layerRow is one line of the waterfall: a layer's self time per request.
type layerRow struct {
	Layer string  `json:"layer"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	// Share is the layer's p50 over the request total's p50.
	Share float64 `json:"share"`
}

// waterfall is the per-layer table of a traced pass and its check.
type waterfall struct {
	Requests int        `json:"requests"`
	TotalP50 float64    `json:"request_total_p50_ms"`
	Rows     []layerRow `json:"layers"`
	// Unattributed is the median, over requests, of the share of the
	// request total that no layer span covers.
	Unattributed float64 `json:"unattributed_share_p50"`
	OK           bool    `json:"within_slack"`
}

// waterfallSlack is how much of a request's step-by-step total the layer
// spans may leave unaccounted for.
const waterfallSlack = 0.03

// buildWaterfall sums self time per layer within each request, takes
// percentiles across requests, and checks that the layers add up to the
// request total.
func (r *recorder) buildWaterfall() waterfall {
	self := r.selfTimes()
	perReq := map[int]map[string]time.Duration{}
	totals := map[int]time.Duration{}
	var names []string
	seen := map[string]bool{}
	for i, s := range r.spans {
		if s.Name == spanRequest {
			totals[s.Req] = s.dur()
			continue
		}
		if perReq[s.Req] == nil {
			perReq[s.Req] = map[string]time.Duration{}
		}
		perReq[s.Req][s.Name] += self[i]
		if !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
	}
	wf := waterfall{Requests: len(totals)}
	if len(totals) == 0 {
		return wf
	}
	var totalSamples []time.Duration
	var gaps []float64
	for req, total := range totals {
		totalSamples = append(totalSamples, total)
		var covered time.Duration
		for _, d := range perReq[req] {
			covered += d
		}
		gaps = append(gaps, float64(total-covered)/float64(total))
	}
	sortDurations(totalSamples)
	wf.TotalP50 = ms(quantile(totalSamples, 0.5))
	for _, name := range names {
		var samples []time.Duration
		for req := range totals {
			samples = append(samples, perReq[req][name])
		}
		sortDurations(samples)
		p50 := ms(quantile(samples, 0.5))
		wf.Rows = append(wf.Rows, layerRow{Layer: name, P50MS: p50, P90MS: ms(quantile(samples, 0.9)), Share: p50 / wf.TotalP50})
	}
	wf.Unattributed = median(gaps)
	wf.OK = wf.Unattributed >= -waterfallSlack && wf.Unattributed <= waterfallSlack
	return wf
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func (wf waterfall) print() {
	fmt.Printf("  waterfall: per-layer self time per request, %d step-by-step requests\n", wf.Requests)
	fmt.Printf("    %-22s %10s %10s %7s\n", "layer", "p50 ms", "p90 ms", "share")
	for _, row := range wf.Rows {
		fmt.Printf("    %-22s %10.3f %10.3f %6.1f%%\n", row.Layer, row.P50MS, row.P90MS, 100*row.Share)
	}
	verdict := "ok"
	if !wf.OK {
		verdict = "FAIL"
	}
	fmt.Printf("    %-22s %10.3f   unattributed %.2f%% of the request (limit %.0f%%): %s\n",
		"request total", wf.TotalP50, 100*wf.Unattributed, 100*waterfallSlack, verdict)
}

// traceFile is what a traced pass leaves in <out>/trace_<workload>.json.
type traceFile struct {
	Host      host               `json:"host"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Tally     map[string]tally   `json:"requests_by_phase"`
	Metrics   map[string]float64 `json:"per_layer_metrics"`
	Waterfall waterfall          `json:"waterfall"`
	Spans     []span             `json:"spans"`
}

func (t tally) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]int{"sent": t.sent, "succeeded": t.succeeded, "wrong": t.wrong, "errored": t.errored})
}

func writeTraceFile(dir string, tf *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+tf.Workload+".json")
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
