package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
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
//     hashing the trace ID — both parties of a request compute the
//     identical decision from the ID already riding the TraceContext,
//     so client and server retain the same requests with no extra wire
//     state. SampleProb 1 keeps every request.
//
// Kept records append to a bounded on-disk JSONL span log with
// size-based rotation (or an in-memory ring when no directory is
// configured) and are queryable via /debug/traces, `ppbench traces`
// and ppserver's SIGQUIT dump.
type TraceStore struct {
	cfg TraceStoreConfig

	mu      sync.Mutex
	file    *os.File
	size    int64
	seq     int
	mem     []TraceRecord // bounded ring, newest last
	winFrom time.Time     // current slowest-K window start
	winDurs []time.Duration
	now     func() time.Time

	kept    map[string]*Counter
	dropped *Counter
}

// TraceStoreConfig configures retention and the span log.
type TraceStoreConfig struct {
	// Dir receives the JSONL span log ("traces-<seq>.jsonl"). Empty
	// keeps records only in the in-memory ring.
	Dir string
	// MaxFileBytes rotates the current log file past this size
	// (default 4 MiB).
	MaxFileBytes int64
	// MaxFiles bounds how many rotated files are kept (default 4).
	MaxFiles int
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

// TraceRecord is one retained request in the span log.
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

// TraceSampled is the deterministic sampling decision for a trace ID:
// an FNV-1a hash of the ID mapped onto [0,1) and compared against prob.
// Both parties of a request reach the same verdict from the shared ID.
func TraceSampled(id string, prob float64) bool {
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

// NewTraceStore opens the store, creating cfg.Dir when needed. Close
// releases the current log file.
func NewTraceStore(cfg TraceStoreConfig) (*TraceStore, error) {
	ts := newTraceStore(cfg)
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("obs: trace store dir: %w", err)
		}
		// Resume after the highest existing sequence number so restarts
		// never clobber earlier logs.
		seqs, err := ts.logSeqs()
		if err != nil {
			return nil, err
		}
		if len(seqs) > 0 {
			ts.seq = seqs[len(seqs)-1] + 1
		}
	}
	return ts, nil
}

// NewFlightRecorder returns a memory-only store that keeps every request
// it is offered (SampleProb 1) in a ring of memRecords (default 256),
// labelling the slowest slowestK per window "slow" (default 8). It is kept
// for the benchmark's traced pass, which sets SessionConfig.Flight with
// it; the third argument, once an error-ring size, is ignored — errors are
// always kept.
func NewFlightRecorder(memRecords, slowestK, _ int) *TraceStore {
	return newTraceStore(TraceStoreConfig{MemRecords: memRecords, SlowestK: slowestK, SampleProb: 1})
}

// newTraceStore fills cfg's defaults and builds the store around it.
func newTraceStore(cfg TraceStoreConfig) *TraceStore {
	if cfg.MaxFileBytes <= 0 {
		cfg.MaxFileBytes = 4 << 20
	}
	if cfg.MaxFiles <= 0 {
		cfg.MaxFiles = 4
	}
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

func traceLogName(seq int) string { return fmt.Sprintf("traces-%06d.jsonl", seq) }

// logSeqs lists the directory's span-log sequence numbers, ascending.
func (ts *TraceStore) logSeqs() ([]int, error) {
	entries, err := os.ReadDir(ts.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("obs: trace store dir: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "traces-%d.jsonl", &n); err == nil && strings.HasSuffix(e.Name(), ".jsonl") {
			seqs = append(seqs, n)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
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
	case TraceSampled(tree.ID, ts.cfg.SampleProb):
		reason = TraceKeptSampled
	default:
		ts.dropped.Inc()
		return "", false
	}
	rec := TraceRecord{When: now.UTC(), Reason: reason, Plan: plan, Trace: tree}
	if err != nil {
		rec.Err = err.Error()
	}
	ts.append(rec)
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

// append writes the record to the memory ring and, when configured, the
// JSONL span log, rotating and pruning as needed. Called with the lock
// held.
func (ts *TraceStore) append(rec TraceRecord) {
	ts.mem = append(ts.mem, rec)
	if over := len(ts.mem) - ts.cfg.MemRecords; over > 0 {
		ts.mem = append(ts.mem[:0], ts.mem[over:]...)
	}
	if ts.cfg.Dir == "" {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	if ts.file != nil && ts.size+int64(len(line)) > ts.cfg.MaxFileBytes {
		_ = ts.file.Close()
		ts.file = nil
		ts.seq++
	}
	if ts.file == nil {
		f, err := os.OpenFile(filepath.Join(ts.cfg.Dir, traceLogName(ts.seq)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return
		}
		ts.file = f
		ts.size = 0
		ts.prune()
	}
	n, err := ts.file.Write(line)
	ts.size += int64(n)
	if err != nil {
		// A failing span log must not take down serving; drop to the
		// memory ring only and retry the file on next rotation.
		_ = ts.file.Close()
		ts.file = nil
	}
}

// prune deletes rotated files beyond MaxFiles, oldest first. Called
// with the lock held.
func (ts *TraceStore) prune() {
	seqs, err := ts.logSeqs()
	if err != nil {
		return
	}
	for len(seqs) > ts.cfg.MaxFiles {
		_ = os.Remove(filepath.Join(ts.cfg.Dir, traceLogName(seqs[0])))
		seqs = seqs[1:]
	}
}

// Close flushes and closes the current span-log file.
func (ts *TraceStore) Close() error {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.file == nil {
		return nil
	}
	err := ts.file.Close()
	ts.file = nil
	return err
}

// TraceQuery filters retained records.
type TraceQuery struct {
	// Since excludes records retained before this instant (zero = all).
	Since time.Time
	// MinDur excludes requests faster than this.
	MinDur time.Duration
	// ID, when set, matches one trace ID exactly.
	ID string
	// Limit bounds the result count, newest kept (0 = DefaultTraceQueryLimit).
	Limit int
}

// DefaultTraceQueryLimit bounds /debug/traces responses.
const DefaultTraceQueryLimit = 100

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

// Query returns matching retained records, oldest first. When a span
// log is configured it is authoritative (rotated files included);
// otherwise the memory ring answers.
func (ts *TraceStore) Query(q TraceQuery) ([]TraceRecord, error) {
	if ts == nil {
		return nil, nil
	}
	if q.Limit <= 0 {
		q.Limit = DefaultTraceQueryLimit
	}
	var out []TraceRecord
	if ts.cfg.Dir == "" {
		ts.mu.Lock()
		for _, rec := range ts.mem {
			if q.match(rec) {
				out = append(out, rec)
			}
		}
		ts.mu.Unlock()
	} else {
		ts.mu.Lock()
		seqs, err := ts.logSeqs()
		ts.mu.Unlock()
		if err != nil {
			return nil, err
		}
		for _, seq := range seqs {
			f, err := os.Open(filepath.Join(ts.cfg.Dir, traceLogName(seq)))
			if err != nil {
				continue // rotated away between listing and open
			}
			sc := bufio.NewScanner(f)
			sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
			for sc.Scan() {
				var rec TraceRecord
				if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
					continue // torn final line after a crash
				}
				if q.match(rec) {
					out = append(out, rec)
				}
			}
			_ = f.Close()
		}
	}
	if over := len(out) - q.Limit; over > 0 {
		out = out[over:]
	}
	return out, nil
}

// WriteJSON writes the query result as an indented JSON array — the
// /debug/traces body and ppserver's SIGQUIT dump.
func (ts *TraceStore) WriteJSON(w io.Writer, q TraceQuery) error {
	recs, err := ts.Query(q)
	if err != nil {
		return err
	}
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
