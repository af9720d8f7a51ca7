// Command ppserver hosts the model provider as a network service: it
// loads the vendor's trained model and answers privacy-preserving
// inference sessions from ppclient. The private key never exists on
// this side; each session is keyed by the client's public key from its
// Hello frame.
//
// Usage:
//
//	ppserver -model models/Heart.gob -listen :7100 -factor 10000 -metrics :7200
//
// Connections speak the wire format at stream.WireVersion (DESIGN.md §4e):
// a client that opens with anything else — another version, or the gob
// stream of a build before the format existed — is answered with one
// "unsupported wire version" error frame and dropped; the model file is
// the only gob left.
//
// Each session is multiplexed: round frames from different in-flight
// requests interleave on one connection; each linear round is a stage
// that runs one frame at a time behind a queue of -window frames, so
// requests in different rounds overlap; per-request state abandoned
// mid-protocol is evicted
// after -idlettl, and requests whose client-propagated deadline expires
// are evicted immediately. Admission control is one gate shared by every
// session, checking each new request in order: -maxinflight and -shed
// reject excess or overload-era requests with a retryable typed shed
// error, and -ratelimit/-ratewindow throttle new requests per sliding
// window — clients retry both with backoff.
//
// -profile caps the per-round crypto-backend posture: each session runs
// the STRICTER of this policy and the client's requested profile
// (privacy-max > mixed > latency), and the solved per-round assignment
// rides the Hello's answer for the client to validate. -clearboundary
// admits plaintext execution for trailing rounds at or past the round it
// names (never round 0); the server does not certify it, so leave it 0
// unless an offline internal/leakage certification of this model admits
// that round. With -metrics set, the server's registry (session
// counts, per-round latency percentiles including the kernel/permute
// split, TCP byte/frame counters, runtime gauges) is served as JSON at
// http://<addr>/metrics, plus /healthz, /readyz, and pprof at
// /debug/pprof/. The last-minute views of the serve metrics are at
// /debug/live; -slo objectives (e.g. p99=250ms,avail=99.9) are evaluated
// as multi-window burn-rate alerts at /debug/slo.
//
// Every finished request's record — its server-side trace with per-round
// crypto-cost profiles, the session's backend plan, its error — is offered
// to one span store, which keeps errored requests, the slowest of each
// minute and a -tracesample share of the rest (-tracesample 1 keeps every
// request) in a 256-record memory ring. The retained records are
// queryable at /debug/traces and written to stderr on SIGQUIT; the server
// keeps serving.
//
// The server emits structured JSON log lines (startup configuration,
// session lifecycle, a shutdown summary with request counts and uptime
// on SIGINT/SIGTERM). On SIGTERM the server first flips /readyz to
// not-ready and raises the serve.draining gauge, then keeps serving for
// -drain so load balancers route traffic away before it exits. Rounds
// slower than -slow are logged with their trace ID, correlating with
// the client's merged trace.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"ppstream"
	"ppstream/internal/backend"
	"ppstream/internal/obs"
	"ppstream/internal/obs/obshttp"
	"ppstream/internal/protocol"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, serves until SIGINT/SIGTERM, and returns the exit
// code: 2 for a bad command line (nothing is opened), 1 for a failure to
// start or to accept, 0 after a signalled shutdown. Log lines go to
// stdout, the usage text and the SIGQUIT dump to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelPath := fs.String("model", "", "trained model file (required)")
	listen := fs.String("listen", "127.0.0.1:7100", "listen address")
	factor := fs.Int64("factor", 10000, "agreed parameter scaling factor")
	maxWorkers := fs.Int("maxworkers", 8, "per-stage thread cap per session")
	window := fs.Int("window", protocol.DefaultSessionWindow, "round frames queued per linear round of a session")
	idleTTL := fs.Duration("idlettl", protocol.DefaultIdleTTL, "evict per-request state after this much inactivity")
	maxInFlight := fs.Int64("maxinflight", 0, "shed new requests beyond this many in flight across all sessions (0 disables)")
	shedLatency := fs.Duration("shed", 0, "shed new requests while the recent p95 request latency exceeds this (0 disables)")
	rateLimit := fs.Int("ratelimit", 0, "throttle new requests beyond this many per -ratewindow (0 disables)")
	rateWindow := fs.Duration("ratewindow", time.Second, "sliding window for -ratelimit")
	metricsAddr := fs.String("metrics", "", "serve JSON metrics + health + pprof on this address (e.g. :7200; empty disables)")
	profile := fs.String("profile", "", "backend-profile policy cap: sessions run the stricter of this and the client's request (latency, privacy-max, mixed; empty = privacy-max)")
	clearBoundary := fs.Int("clearboundary", 0, "clear boundary: first linear round allowed to run plaintext (0 = never; not certified here: certify with internal/leakage before lowering)")
	slow := fs.Duration("slow", 0, "log rounds slower than this with their trace ID (0 disables)")
	debugLog := fs.Bool("debug", false, "emit debug-level log lines")
	sloSpec := fs.String("slo", "", "comma-separated SLO specs evaluated as multi-window burn rates, e.g. p99=250ms,avail=99.9 (served at /debug/slo; empty disables)")
	traceSample := fs.Float64("tracesample", 0, "probability in [0,1] of retaining an unremarkable request's record (errored and each minute's slowest are always kept; 1 keeps the last 256 requests for /debug/traces and the SIGQUIT dump)")
	drain := fs.Duration("drain", 2*time.Second, "on SIGTERM, stay up this long after /readyz flips not-ready so load balancers drain us first")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *modelPath == "" {
		fs.Usage()
		return 2
	}

	level := obs.LevelInfo
	if *debugLog {
		level = obs.LevelDebug
	}
	logger := obs.NewLogger(stdout, level)

	srvProfile, err := backend.ParseProfile(*profile)
	if err != nil {
		logger.Error("bad -profile", "err", err.Error())
		return 2
	}
	var specs []obs.SLOSpec
	if *sloSpec != "" {
		if specs, err = obs.ParseSLOSpecs(*sloSpec); err != nil {
			logger.Error("bad -slo", "err", err.Error())
			return 2
		}
	}

	// The registry is always on: it feeds the shutdown summary even when
	// no metrics endpoint is exposed.
	reg := obs.NewRegistry("ppserver")
	obs.RegisterRuntimeMetrics(reg)

	// The span store is the one place finished requests are kept: errored,
	// shed, and deadline-expired requests always, the slowest of each
	// minute, and a -tracesample slice of the rest. They answer
	// /debug/traces and the SIGQUIT dump.
	traces, err := obs.NewTraceStore(obs.TraceStoreConfig{SampleProb: *traceSample, Registry: reg})
	if err != nil {
		logger.Error("bad -tracesample", "err", err.Error())
		return 2
	}
	defer traces.Close()

	netModel, err := ppstream.LoadModel(*modelPath)
	if err != nil {
		logger.Error("model load failed", "path", *modelPath, "err", err.Error())
		return 1
	}

	// SLO engine: declarative objectives evaluated as multi-window
	// burn-rate alerts over every session's request stream. One engine is
	// shared server-wide so the error budget is global.
	var slo *obs.SLOEngine
	if specs != nil {
		if slo, err = obs.NewSLOEngine(obs.SLOConfig{Specs: specs, Registry: reg}); err != nil {
			logger.Error("slo engine rejected", "err", err.Error())
			return 2
		}
	}

	// One admission gate is shared across every session so the in-flight
	// bound and rate limit are global to the server, not per connection.
	gate, err := protocol.NewGate(protocol.GateConfig{
		MaxInFlight:   *maxInFlight,
		LatencyTarget: *shedLatency,
		RateLimit:     *rateLimit,
		RateWindow:    *rateWindow,
		Registry:      reg,
	})
	if err != nil {
		logger.Error("admission gate rejected", "err", err.Error())
		return 1
	}

	var ready atomic.Bool
	// serve.draining flips to 1 the moment SIGTERM lands: snapshots taken
	// during the drain window are distinguishable from healthy samples.
	var draining atomic.Int64
	reg.GaugeFunc("serve.draining", draining.Load)
	metricsBound := ""
	if *metricsAddr != "" {
		bound, stop, err := obshttp.Serve(*metricsAddr, obshttp.Options{Ready: ready.Load, Traces: traces, SLO: slo}, reg)
		if err != nil {
			logger.Error("metrics listener failed", "addr", *metricsAddr, "err", err.Error())
			return 1
		}
		defer stop(context.Background())
		metricsBound = bound
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("listen failed", "addr", *listen, "err", err.Error())
		return 1
	}
	ready.Store(true)
	start := time.Now()
	logger.Info("ppserver started",
		"model", netModel.ModelName,
		"params", netModel.ParamCount(),
		"addr", l.Addr().String(),
		"metrics_addr", metricsBound,
		"factor", *factor,
		"window", *window,
		"max_workers", *maxWorkers,
		"idle_ttl", idleTTL.String(),
		"slow_threshold", slow.String(),
		"profile", string(srvProfile),
		"clear_boundary", *clearBoundary,
	)

	// SIGQUIT writes the span store's retained records to stderr and keeps
	// serving — the in-production "what just happened" escape hatch.
	// Registering the handler replaces the runtime's kill-with-stack-dump
	// default.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	defer signal.Stop(quitCh)
	go func() {
		for range quitCh {
			if err := traces.WriteJSON(stderr, obs.TraceQuery{}); err != nil {
				logger.Warn("trace dump failed", "err", err.Error())
			}
		}
	}()

	// Shutdown summary on SIGINT/SIGTERM: what the server did with its
	// uptime, from the same registry the metrics endpoint serves. Closing
	// the listener then ends Serve below.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		sig := <-sigCh
		// Drain choreography: flip /readyz first so load balancers stop
		// routing to us, keep accepting the in-flight tail for -drain,
		// then summarize and exit. SIGINT (interactive) skips the wait.
		ready.Store(false)
		draining.Store(1)
		if sig == syscall.SIGTERM && *drain > 0 {
			logger.Info("ppserver draining", "drain", drain.String())
			time.Sleep(*drain)
		}
		snap := reg.Snapshot()
		logger.Info("ppserver shutting down",
			"signal", sig.String(),
			"uptime", time.Since(start).Round(time.Millisecond).String(),
			"sessions_total", snap.Counters["sessions.total"],
			"requests_ok", snap.Counters["serve.requests.ok"],
			"requests_evicted", snap.Counters["requests.evicted"],
			"rounds_served", snap.Counters["rounds.served"],
			"rounds_err", snap.Counters["rounds.errors"],
		)
		l.Close()
	}()

	// The network goes to Serve, which keeps its walked form and not the
	// network itself.
	err = protocol.Serve(context.Background(), l, netModel, protocol.SessionConfig{
		Factor:        *factor,
		MaxWorkers:    *maxWorkers,
		Window:        *window,
		IdleTTL:       *idleTTL,
		Gate:          gate,
		Registry:      reg,
		Log:           logger,
		SlowRound:     *slow,
		Traces:        traces,
		SLO:           slo,
		Profile:       srvProfile,
		ClearBoundary: *clearBoundary,
	})
	if err != nil {
		logger.Error("serve failed", "err", err.Error())
		return 1
	}
	return 0
}
