package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"time"
)

// TraceStore is the one place a finished request's record is kept: the
// tail-sampling span store. It sees every completed request's merged
// TraceTree and decides AFTER the fact — when the outcome is known —
// which ones are worth keeping. Retention policy, in priority order:
//
//  1. errored/shed/deadline-expired requests are always kept;
//  2. the slowest-K requests per window are kept (the tail an operator
//     actually debugs);
//  3. the rest are sampled with probability SampleProb, decided by
//     hashing the trace ID, so the verdict for one request is the same
//     every time it is asked. SampleProb 1 keeps every request.
//
// Kept records go to a bounded in-memory ring, queryable via
// /debug/traces, `ppbench traces` and ppserver's SIGQUIT dump.
type TraceStore struct {
	cfg TraceStoreConfig

	mu      sync.Mutex
	mem     []TraceRecord // bounded ring, newest last
	winFrom time.Time     // current slowest-K window start
	winDurs []time.Duration
	now     func() time.Time

	kept    map[string]*Counter
	dropped *Counter
}

// TraceStoreConfig configures retention.
type TraceStoreConfig struct {
	// SlowestK keeps the K slowest requests per minute (default 8).
	SlowestK int
	// SampleProb is the probabilistic keep rate for unremarkable
	// requests, in [0,1]. Zero keeps none beyond the errored and
	// slowest-K records.
	SampleProb float64
	// MemRecords bounds the in-memory ring (default 256).
	MemRecords int
	// Registry, when non-nil, receives tracestore.kept.* / dropped
	// counters.
	Registry *Registry
}

// TraceRecord is one retained request.
type TraceRecord struct {
	When time.Time `json:"when"`
	// Reason is why the record was kept: "error", "slow", or "sampled".
	Reason string `json:"reason"`
	Err    string `json:"err,omitempty"`
	// Plan is the serving session's per-round backend assignment
	// ("paillier-he", "ss-gc", "clear"), when the caller knows it.
	Plan  []string   `json:"plan,omitempty"`
	Trace *TraceTree `json:"trace"`
}

// traceSlowWindow is the span of one slowest-K comparison window.
const traceSlowWindow = time.Minute

// Retention reasons.
const (
	TraceKeptError   = "error"
	TraceKeptSlow    = "slow"
	TraceKeptSampled = "sampled"
)

// traceSampled is the deterministic sampling decision for a trace ID:
// an FNV-1a hash of the ID mapped onto [0,1) and compared against prob.
// The same ID always gets the same verdict.
func traceSampled(id string, prob float64) bool {
	if prob >= 1 {
		return true
	}
	if prob <= 0 || id == "" {
		return false
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, id) // hash.Hash.Write never errors
	const span = 1 << 53         // float64-exact range
	return float64(h.Sum64()%span)/span < prob
}

// NewTraceStore builds the store, refusing a SampleProb outside [0,1]
// (NaN included).
func NewTraceStore(cfg TraceStoreConfig) (*TraceStore, error) {
	if !(cfg.SampleProb >= 0 && cfg.SampleProb <= 1) {
		return nil, fmt.Errorf("obs: trace sample probability %v is outside [0,1]", cfg.SampleProb)
	}
	return newTraceStore(cfg), nil
}

// NewFlightRecorder returns a store that keeps every request it is
// offered (SampleProb 1) in a ring of memRecords (default 256), labelling
// the slowest slowestK per window "slow" (default 8). It is kept for the
// benchmark's traced pass, which sets SessionConfig.Flight with it; the
// third argument, once an error-ring size, is ignored — errors are always
// kept.
func NewFlightRecorder(memRecords, slowestK, _ int) *TraceStore {
	return newTraceStore(TraceStoreConfig{MemRecords: memRecords, SlowestK: slowestK, SampleProb: 1})
}

// newTraceStore fills cfg's defaults and builds the store around it.
func newTraceStore(cfg TraceStoreConfig) *TraceStore {
	if cfg.SlowestK <= 0 {
		cfg.SlowestK = 8
	}
	if cfg.MemRecords <= 0 {
		cfg.MemRecords = 256
	}
	ts := &TraceStore{cfg: cfg, now: time.Now, kept: map[string]*Counter{},
		dropped: cfg.Registry.Counter("tracestore.dropped")}
	for _, reason := range []string{TraceKeptError, TraceKeptSlow, TraceKeptSampled} {
		ts.kept[reason] = cfg.Registry.Counter("tracestore.kept." + reason)
	}
	return ts
}

// Record offers a completed request — its tree, the serving session's
// backend plan when known, and its error — to the store and reports
// whether it was retained (with the reason). Nil-safe and nil-tree-safe:
// both report a drop without recording.
func (ts *TraceStore) Record(tree *TraceTree, plan []string, err error) (string, bool) {
	if ts == nil || tree == nil {
		return "", false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	now := ts.now()
	reason := ""
	switch {
	case err != nil:
		reason = TraceKeptError
	case ts.keepSlow(now, tree.Total):
		reason = TraceKeptSlow
	case traceSampled(tree.ID, ts.cfg.SampleProb):
		reason = TraceKeptSampled
	default:
		ts.dropped.Inc()
		return "", false
	}
	rec := TraceRecord{When: now.UTC(), Reason: reason, Plan: plan, Trace: tree}
	if err != nil {
		rec.Err = err.Error()
	}
	ts.mem = append(ts.mem, rec)
	if over := len(ts.mem) - ts.cfg.MemRecords; over > 0 {
		ts.mem = append(ts.mem[:0], ts.mem[over:]...)
	}
	ts.kept[reason].Inc()
	return reason, true
}

// keepSlow decides whether a request is among the slowest-K of the
// current window, tracking the window's retained durations. Called with
// the lock held.
func (ts *TraceStore) keepSlow(now time.Time, total time.Duration) bool {
	if now.Sub(ts.winFrom) >= traceSlowWindow {
		ts.winFrom = now
		ts.winDurs = ts.winDurs[:0]
	}
	if len(ts.winDurs) < ts.cfg.SlowestK {
		ts.winDurs = append(ts.winDurs, total)
		return true
	}
	// Replace the window's fastest retained duration if this one is
	// slower — keeps the invariant "winDurs holds the K slowest so far".
	minIdx := 0
	for i, d := range ts.winDurs {
		if d < ts.winDurs[minIdx] {
			minIdx = i
		}
	}
	if total <= ts.winDurs[minIdx] {
		return false
	}
	ts.winDurs[minIdx] = total
	return true
}

// Close releases nothing, since the store lives in memory, and returns
// nil; owners that manage the store as a resource still call it.
func (ts *TraceStore) Close() error { return nil }

// TraceQuery filters retained records.
type TraceQuery struct {
	// Since excludes records retained before this instant (zero = all).
	Since time.Time
	// MinDur excludes requests faster than this.
	MinDur time.Duration
	// ID, when set, matches one trace ID exactly.
	ID string
	// Limit bounds the result count, newest kept (0 = defaultTraceQueryLimit).
	Limit int
}

// defaultTraceQueryLimit bounds /debug/traces responses.
const defaultTraceQueryLimit = 100

func (q TraceQuery) match(rec TraceRecord) bool {
	if !q.Since.IsZero() && rec.When.Before(q.Since) {
		return false
	}
	if rec.Trace == nil {
		return false
	}
	if q.MinDur > 0 && rec.Trace.Total < q.MinDur {
		return false
	}
	if q.ID != "" && rec.Trace.ID != q.ID {
		return false
	}
	return true
}

// Query returns matching retained records, oldest first.
func (ts *TraceStore) Query(q TraceQuery) []TraceRecord {
	if ts == nil {
		return nil
	}
	if q.Limit <= 0 {
		q.Limit = defaultTraceQueryLimit
	}
	var out []TraceRecord
	ts.mu.Lock()
	for _, rec := range ts.mem {
		if q.match(rec) {
			out = append(out, rec)
		}
	}
	ts.mu.Unlock()
	if over := len(out) - q.Limit; over > 0 {
		out = out[over:]
	}
	return out
}

// WriteJSON writes the query result as an indented JSON array — the
// /debug/traces body and ppserver's SIGQUIT dump.
func (ts *TraceStore) WriteJSON(w io.Writer, q TraceQuery) error {
	recs := ts.Query(q)
	if recs == nil {
		recs = []TraceRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(recs); err != nil {
		return fmt.Errorf("obs: writing trace records: %w", err)
	}
	return nil
}
