package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// This file holds the cross-party distributed-tracing model. A trace ID
// is assigned where a request enters the system (protocol.Client.Infer,
// which core.Engine.Submit runs too) and propagated in every wire frame,
// so both the data provider and the model provider record spans under the
// same identity. The client merges its own spans with the server's
// shipped spans into one TraceTree — the Dapper-style end-to-end view
// neither party's own spans can give.

// traceFallback seeds trace IDs when crypto/rand is unavailable; the
// IDs stay unique within the process, which is all correlation needs.
var traceFallback atomic.Uint64

// traceRandom is the entropy source for trace IDs, a variable so tests
// can exercise the failure path. It is read once at ID generation; a
// short or failed read falls back to the process-unique counter, so
// NewTraceID never panics and never blocks on a broken entropy source.
var traceRandom io.Reader = rand.Reader

// NewTraceID returns a 16-hex-character request trace identifier. Under
// entropy failure it degrades to a process-unique "fb"-prefixed counter
// ID rather than failing: trace IDs need correlation, not secrecy.
func NewTraceID() string {
	var b [8]byte
	if n, err := io.ReadFull(traceRandom, b[:]); err != nil || n != len(b) {
		return fmt.Sprintf("fb%014x", traceFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// Segment is one timed slice of a traced request, attributed to a party:
// "client" (data provider), "server" (model provider), or "wire" (the
// inferred transport gap between the two). Round is the protocol round
// the segment belongs to, or -1 for request-scoped segments such as
// input encryption.
type Segment struct {
	Party string        `json:"party"`
	Name  string        `json:"name"`
	Round int           `json:"round"`
	Dur   time.Duration `json:"dur_ns"`
	// Backend, when non-empty, names the crypto backend that executed
	// this segment's round ("paillier-he", "ss-gc", "clear"), so a
	// mixed-backend request's trace shows the planned assignment.
	Backend string `json:"backend,omitempty"`
	// Cost, when non-nil, is the crypto-cost profile attributed to this
	// segment (modexps, ciphertext bytes, pool hit rate, ...), so the
	// tree explains why the segment took its duration.
	Cost *CostStats `json:"cost,omitempty"`
}

// Label renders the per-party segment name the breakdown tables group
// by ("client-nonlinear", "server-kernel[ss-gc]", "wire", ...). The
// backend suffix keeps per-backend timings separate in the breakdown.
func (s Segment) Label() string {
	base := s.Name
	if s.Party != "" && s.Party != s.Name {
		base = s.Party + "-" + s.Name
	}
	if s.Backend != "" {
		base += "[" + s.Backend + "]"
	}
	return base
}

// TraceTree is one request's merged cross-party trace: every segment of
// both parties under a single trace ID, plus the client-observed
// end-to-end latency. Segment durations sum to Total minus only the
// merge bookkeeping between measured slices (and any wire-gap clamping),
// so the tree accounts for where the request actually spent its time.
type TraceTree struct {
	ID       string        `json:"trace_id"`
	Total    time.Duration `json:"total_ns"`
	Segments []Segment     `json:"segments"`
}

// Sum adds up all segment durations — compare against Total to bound
// the unattributed remainder.
func (t *TraceTree) Sum() time.Duration {
	if t == nil {
		return 0
	}
	var d time.Duration
	for _, s := range t.Segments {
		d += s.Dur
	}
	return d
}

// Cost sums every segment's crypto-cost profile: the request's total
// accounting across both parties.
func (t *TraceTree) Cost() CostStats {
	var total CostStats
	if t == nil {
		return total
	}
	for _, s := range t.Segments {
		if s.Cost != nil {
			total.Add(*s.Cost)
		}
	}
	return total
}

// BreakdownRow is one segment label's distribution across a set of
// traces: per-request totals (a request's rounds of the same label are
// summed first), then percentiles across requests.
type BreakdownRow struct {
	Label string
	Count int
	Total time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	// Share is this label's fraction of the summed duration of all
	// labels (0..1).
	Share float64
}

// segmentOrder fixes the canonical row order of the protocol's merged
// breakdown; labels outside the list sort after it, alphabetically.
var segmentOrder = map[string]int{
	"client-queue":     0,
	"client-encrypt":   1,
	"wire":             2,
	"server-queue":     3,
	"server-kernel":    4,
	"server-permute":   5,
	"server-pack":      6,
	"client-nonlinear": 7,
}

// Breakdown aggregates merged traces into per-segment-label rows with
// p50/p95/p99 of the per-request label totals. Nil trees (dropped or
// failed requests) are skipped.
func Breakdown(trees []*TraceTree) []BreakdownRow {
	perLabel := map[string][]time.Duration{}
	for _, t := range trees {
		if t == nil {
			continue
		}
		reqTotals := map[string]time.Duration{}
		for _, s := range t.Segments {
			reqTotals[s.Label()] += s.Dur
		}
		for label, d := range reqTotals {
			perLabel[label] = append(perLabel[label], d)
		}
	}
	var grand time.Duration
	for _, ds := range perLabel {
		for _, d := range ds {
			grand += d
		}
	}
	if len(perLabel) == 0 {
		return nil
	}
	rows := make([]BreakdownRow, 0, len(perLabel))
	for label, ds := range perLabel {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var total time.Duration
		for _, d := range ds {
			total += d
		}
		row := BreakdownRow{
			Label: label,
			Count: len(ds),
			Total: total,
			P50:   Percentile(ds, 0.50),
			P95:   Percentile(ds, 0.95),
			P99:   Percentile(ds, 0.99),
		}
		if grand > 0 {
			row.Share = float64(total) / float64(grand)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		oi, iok := segmentOrder[rows[i].Label]
		oj, jok := segmentOrder[rows[j].Label]
		switch {
		case iok && jok:
			return oi < oj
		case iok != jok:
			return iok
		default:
			return rows[i].Label < rows[j].Label
		}
	})
	return rows
}

// Percentile reads the p-quantile (0 ≤ p ≤ 1) off an ascending slice: the
// element at index ⌊p·(n−1)⌋, or zero for an empty slice.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// RenderBreakdown formats the per-segment table the way ppbench trace
// and ppclient -trace print it.
func RenderBreakdown(rows []BreakdownRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %6s %10s %10s %10s %10s %7s\n",
		"segment", "count", "p50", "p95", "p99", "total", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %6d %10s %10s %10s %10s %6.1f%%\n",
			r.Label, r.Count,
			fmtTraceDur(r.P50), fmtTraceDur(r.P95), fmtTraceDur(r.P99),
			fmtTraceDur(r.Total), 100*r.Share)
	}
	return b.String()
}

// RenderTree formats one merged trace, segment by segment in recorded
// order, with the unattributed remainder on the last line.
func RenderTree(t *TraceTree) string {
	if t == nil {
		return "(no trace)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s  total %s\n", t.ID, fmtTraceDur(t.Total))
	for _, s := range t.Segments {
		round := "-"
		if s.Round >= 0 {
			round = fmt.Sprint(s.Round)
		}
		fmt.Fprintf(&b, "  %-18s round %-3s %10s\n", s.Label(), round, fmtTraceDur(s.Dur))
		if s.Cost != nil && !s.Cost.IsZero() {
			fmt.Fprintf(&b, "    cost: %s\n", s.Cost.String())
		}
	}
	if rem := t.Total - t.Sum(); rem > 0 {
		fmt.Fprintf(&b, "  %-18s %19s\n", "(unattributed)", fmtTraceDur(rem))
	}
	if total := t.Cost(); !total.IsZero() {
		fmt.Fprintf(&b, "  request cost: %s\n", total.String())
	}
	return b.String()
}

func fmtTraceDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}
