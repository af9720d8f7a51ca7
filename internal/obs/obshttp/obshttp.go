// Package obshttp exposes obs registries, span stores and SLO
// evaluations over HTTP, beside the standard pprof handlers. Only
// ppserver and the swarm experiment import it, so the packages that serve
// requests link neither net/http nor net/http/pprof.
package obshttp

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"ppstream/internal/obs"
)

// Options configures the exposition endpoint beyond the registries.
type Options struct {
	// Ready, when non-nil, gates /readyz: the endpoint answers 200 only
	// while Ready() is true (503 otherwise). /healthz is liveness and
	// always answers 200. A nil Ready leaves /readyz always-ready.
	Ready func() bool
	// Traces, when non-nil, mounts /debug/traces serving the span store's
	// retained request records. Query parameters: since (RFC3339 instant
	// or a trailing duration like "5m"), min_ms (minimum request duration
	// in milliseconds), id (exact trace ID), limit.
	Traces *obs.TraceStore
	// SLO, when non-nil, mounts /debug/slo serving every objective's
	// multi-window burn-rate evaluation.
	SLO *obs.SLOEngine
}

// serveJSON writes v as indented JSON.
func serveJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// oneOrAll is what a per-registry endpoint serves: the one snapshot
// itself, or the array when several registries share the endpoint.
func oneOrAll[T any](snaps []T) any {
	if len(snaps) == 1 {
		return snaps[0]
	}
	return snaps
}

// handler serves the registries' totals as JSON at /metrics, their
// windows at /debug/live, and mounts /healthz, /readyz, the optional
// /debug/traces and /debug/slo, and the standard pprof handlers under
// /debug/pprof/, so a running ppserver can be inspected with curl and
// `go tool pprof`. It switches the registries' windows on: /debug/live
// reads them.
func handler(opts Options, regs ...*obs.Registry) http.Handler {
	for _, r := range regs {
		r.KeepWindows()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		snaps := make([]obs.Snapshot, len(regs))
		for i, r := range regs {
			snaps[i] = r.Snapshot()
		}
		serveJSON(w, oneOrAll(snaps))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if opts.Ready != nil && !opts.Ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/live", func(w http.ResponseWriter, _ *http.Request) {
		snaps := make([]obs.LiveSnapshot, len(regs))
		for i, r := range regs {
			snaps[i] = r.LiveSnapshot()
		}
		serveJSON(w, oneOrAll(snaps))
	})
	if opts.Traces != nil {
		mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, req *http.Request) {
			q, err := parseTraceQuery(req)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if err := opts.Traces.WriteJSON(w, q); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	if opts.SLO != nil {
		mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, _ *http.Request) {
			serveJSON(w, opts.SLO.Evaluate())
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// parseTraceQuery reads /debug/traces query parameters: since accepts
// an RFC3339 instant or a trailing duration ("5m" = the last five
// minutes); min_ms is a float of milliseconds; id matches one trace;
// limit caps the result count.
func parseTraceQuery(req *http.Request) (obs.TraceQuery, error) {
	var q obs.TraceQuery
	vals := req.URL.Query()
	if s := vals.Get("since"); s != "" {
		if d, err := time.ParseDuration(s); err == nil {
			q.Since = time.Now().Add(-d)
		} else if t, err := time.Parse(time.RFC3339, s); err == nil {
			q.Since = t
		} else {
			return q, fmt.Errorf("since=%q is neither a duration nor RFC3339", s)
		}
	}
	if s := vals.Get("min_ms"); s != "" {
		ms, err := strconv.ParseFloat(s, 64)
		if err != nil || ms < 0 {
			return q, fmt.Errorf("min_ms=%q is not a non-negative number", s)
		}
		q.MinDur = time.Duration(ms * float64(time.Millisecond))
	}
	q.ID = vals.Get("id")
	if s := vals.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return q, fmt.Errorf("limit=%q is not a positive integer", s)
		}
		q.Limit = n
	}
	return q, nil
}

// Serve starts the exposition endpoint on addr (":0" picks a free port)
// and returns the bound address plus a shutdown function. The server
// runs until shutdown is called. The registries keep windows from the
// call on, before the endpoint listens.
func Serve(addr string, opts Options, regs ...*obs.Registry) (string, func(context.Context) error, error) {
	h := handler(opts, regs...)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obshttp: listening on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(l)
	return l.Addr().String(), srv.Shutdown, nil
}
