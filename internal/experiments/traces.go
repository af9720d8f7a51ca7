package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ppstream/internal/obs"
)

// This file implements `ppbench traces`: a console view over a running
// ppserver's /debug/traces endpoint — the tail-sampled span store. It
// lists the retained records (why each was kept, its latency, its
// error) and renders the slowest one span by span, so "why was that
// request slow" is answerable from a terminal without jq.

// TracesOptions configures the span-store query.
type TracesOptions struct {
	// Addr is the metrics endpoint's host:port (ppserver -metrics).
	Addr string
	// Since restricts to records retained in the trailing window (e.g.
	// "10m"); empty fetches everything retained.
	Since string
	// MinMS excludes requests faster than this many milliseconds.
	MinMS float64
	// Limit bounds the record count (0 = server default).
	Limit int
	// Client overrides the HTTP client (tests). Nil uses a 5s-timeout
	// default.
	Client *http.Client
}

// Traces fetches and renders the span store's retained records.
func Traces(w io.Writer, opts TracesOptions) error {
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	q := url.Values{}
	if opts.Since != "" {
		q.Set("since", opts.Since)
	}
	if opts.MinMS > 0 {
		q.Set("min_ms", strconv.FormatFloat(opts.MinMS, 'f', -1, 64))
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	u := "http://" + opts.Addr + "/debug/traces"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	data, err := getBody(client, u, 64<<20)
	if err != nil {
		return fmt.Errorf("experiments: trace fetch: %w", err)
	}
	var recs []obs.TraceRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return fmt.Errorf("experiments: trace payload: %w", err)
	}
	fmt.Fprint(w, RenderTraceRecords(recs))
	return nil
}

// RenderTraceRecords formats span-store records: a table of what was
// kept and why, then the slowest record's full tree.
func RenderTraceRecords(recs []obs.TraceRecord) string {
	if len(recs) == 0 {
		return "span store: no retained traces match\n"
	}
	header := []string{"when", "reason", "trace", "total", "spans", "err"}
	var rows [][]string
	slowest := -1
	for i, rec := range recs {
		var id string
		var total time.Duration
		spans := 0
		if rec.Trace != nil {
			id = rec.Trace.ID
			total = rec.Trace.Total
			spans = len(rec.Trace.Segments)
		}
		if slowest < 0 || (recs[slowest].Trace != nil && total > recs[slowest].Trace.Total) {
			slowest = i
		}
		errStr := rec.Err
		if len(errStr) > 48 {
			errStr = errStr[:45] + "..."
		}
		rows = append(rows, []string{
			rec.When.Format("15:04:05.000"), rec.Reason, id, fmtDur(total), fmt.Sprint(spans), errStr,
		})
	}
	out := fmt.Sprintf("span store: %d retained traces\n%s", len(recs), renderTable(header, rows))
	if slowest >= 0 && recs[slowest].Trace != nil && len(recs[slowest].Trace.Segments) > 0 {
		out += fmt.Sprintf("\nslowest retained (%s):\n%s", recs[slowest].Trace.ID, obs.RenderTree(recs[slowest].Trace))
	}
	return out
}
