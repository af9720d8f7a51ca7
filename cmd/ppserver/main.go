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
// Connections speak wire format v1 (DESIGN.md): a client that opens with
// anything else — another version, or the gob stream of a build before the
// format existed — is answered with one "unsupported wire version" error
// frame and dropped; the model file is the only gob left.
//
// Each session is multiplexed: round frames from different in-flight
// requests interleave on one connection and are processed concurrently
// up to -window; per-request state abandoned mid-protocol is evicted
// after -idlettl, and requests whose client-propagated deadline expires
// are evicted immediately. Admission control is global across sessions:
// -maxinflight and -shed reject excess or overload-era requests with a
// retryable typed shed error, and -ratelimit/-ratewindow throttle new
// requests per sliding window — clients retry both with backoff.
//
// -profile caps the per-round crypto-backend posture: each session runs
// the STRICTER of this policy and the client's requested profile
// (privacy-max > mixed > latency), and the solved per-round assignment
// rides the round-0 reply for the client to validate. -clearboundary
// admits plaintext execution for trailing rounds at or past the
// leakage-certified boundary (never round 0); leave it 0 unless an
// internal/leakage distance-correlation certification of this model
// says otherwise. With -metrics set, the server's registry (session
// counts, per-round latency percentiles including the kernel/permute
// split, TCP byte/frame counters, runtime gauges) is served at
// http://<addr>/metrics — JSON by default, Prometheus text at
// /metrics/prometheus or with ?format=prometheus — plus /healthz,
// /readyz, and pprof at /debug/pprof/. Windowed (last-minute) views of
// the serve metrics are at /debug/live; tail-sampled request traces
// (-tracedir, -tracesample) are queryable at /debug/traces; -slo
// objectives (e.g. p99=250ms,avail=99.9) are evaluated as multi-window
// burn-rate alerts at /debug/slo. The flight recorder (-flight)
// keeps the last N request traces with per-round crypto-cost profiles,
// served at /debug/flight and dumped to stderr on SIGQUIT; -profiledir
// enables periodic labeled CPU/heap profile capture.
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
	"flag"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"ppstream"
	"ppstream/internal/backend"
	"ppstream/internal/obs"
	"ppstream/internal/protocol"
	"ppstream/internal/stream"

	"net"
)

func main() {
	modelPath := flag.String("model", "", "trained model file (required)")
	listen := flag.String("listen", "127.0.0.1:7100", "listen address")
	factor := flag.Int64("factor", 10000, "agreed parameter scaling factor")
	maxWorkers := flag.Int("maxworkers", 8, "per-stage thread cap per session")
	window := flag.Int("window", protocol.DefaultSessionWindow, "concurrent in-flight round frames per session")
	idleTTL := flag.Duration("idlettl", protocol.DefaultIdleTTL, "evict per-request state after this much inactivity")
	maxInFlight := flag.Int64("maxinflight", 0, "shed new requests beyond this many in flight across all sessions (0 disables)")
	shedLatency := flag.Duration("shed", 0, "shed new requests while the recent p95 request latency exceeds this (0 disables)")
	rateLimit := flag.Int("ratelimit", 0, "throttle new requests beyond this many per -ratewindow (0 disables)")
	rateWindow := flag.Duration("ratewindow", time.Second, "sliding window for -ratelimit")
	metricsAddr := flag.String("metrics", "", "serve metrics (JSON + Prometheus) + health + pprof on this address (e.g. :7200; empty disables)")
	profile := flag.String("profile", "", "backend-profile policy cap: sessions run the stricter of this and the client's request (latency, privacy-max, mixed; empty = privacy-max)")
	clearBoundary := flag.Int("clearboundary", 0, "leakage-certified clear boundary: first linear round allowed to run plaintext (0 = never; certify with internal/leakage before lowering)")
	slow := flag.Duration("slow", 0, "log rounds slower than this with their trace ID (0 disables)")
	debugLog := flag.Bool("debug", false, "emit debug-level log lines")
	flightN := flag.Int("flight", obs.DefaultFlightRecent, "flight recorder ring size: keep the last N request traces with cost profiles at /debug/flight and on SIGQUIT (0 disables)")
	profileDir := flag.String("profiledir", "", "write periodic labeled CPU/heap profiles into this directory (empty disables)")
	profileEvery := flag.Duration("profileevery", time.Minute, "continuous-profiling capture period (with -profiledir)")
	sloSpec := flag.String("slo", "", "comma-separated SLO specs evaluated as multi-window burn rates, e.g. p99=250ms,avail=99.9 (served at /debug/slo; empty disables)")
	traceDir := flag.String("tracedir", "", "persist tail-sampled request traces as rotated JSONL under this directory (empty keeps them in memory only)")
	traceSample := flag.Float64("tracesample", 0, "probability of retaining an unremarkable trace in the span store (errored/shed/slowest are always kept)")
	drain := flag.Duration("drain", 2*time.Second, "on SIGTERM, stay up this long after /readyz flips not-ready so load balancers drain us first")
	flag.Parse()
	if *modelPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	level := obs.LevelInfo
	if *debugLog {
		level = obs.LevelDebug
	}
	logger := obs.NewLogger(os.Stdout, level).SetSlowThreshold(*slow)

	srvProfile, err := backend.ParseProfile(*profile)
	if err != nil {
		logger.Error("bad -profile", "err", err.Error())
		os.Exit(2)
	}

	netModel, err := ppstream.LoadModel(*modelPath)
	if err != nil {
		logger.Error("model load failed", "path", *modelPath, "err", err.Error())
		os.Exit(1)
	}
	protocol.RegisterServiceWire()

	// The registry is always on: it feeds the shutdown summary even when
	// no metrics endpoint is exposed.
	reg := obs.NewRegistry("ppserver")
	obs.RegisterRuntimeMetrics(reg)

	// Flight recorder: the last-N / slowest-K / errored request traces
	// with their crypto-cost profiles, served at /debug/flight and dumped
	// to stderr on SIGQUIT. A nil recorder disables recording everywhere.
	var flight *obs.FlightRecorder
	if *flightN > 0 {
		flight = obs.NewFlightRecorder(*flightN, 0, 0)
	}

	// The span store keeps the traces worth keeping: errored, shed, and
	// deadline-expired requests always, the slowest of each window, and a
	// -tracesample slice of the rest. With -tracedir set they survive the
	// process as rotated JSONL; either way they answer /debug/traces.
	traces, err := obs.NewTraceStore(obs.TraceStoreConfig{
		Dir:        *traceDir,
		SampleProb: *traceSample,
		Registry:   reg,
	})
	if err != nil {
		logger.Error("trace store failed", "dir", *traceDir, "err", err.Error())
		os.Exit(1)
	}
	defer traces.Close()

	// SLO engine: declarative objectives evaluated as multi-window
	// burn-rate alerts over every session's request stream. One engine is
	// shared server-wide so the error budget is global.
	var slo *obs.SLOEngine
	if *sloSpec != "" {
		specs, err := obs.ParseSLOSpecs(*sloSpec)
		if err != nil {
			logger.Error("bad -slo", "err", err.Error())
			os.Exit(2)
		}
		slo, err = obs.NewSLOEngine(obs.SLOConfig{Specs: specs, Registry: reg})
		if err != nil {
			logger.Error("slo engine rejected", "err", err.Error())
			os.Exit(2)
		}
	}

	// Admission control is shared across every session so the in-flight
	// bound and rate limit are global to the server, not per connection.
	var shed *protocol.Shedder
	if *maxInFlight > 0 || *shedLatency > 0 {
		shed = protocol.NewShedder(protocol.ShedConfig{
			MaxInFlight:   *maxInFlight,
			LatencyTarget: *shedLatency,
			Registry:      reg,
		})
	}
	var limiter *protocol.RateLimiter
	if *rateLimit > 0 {
		limiter, err = protocol.NewRateLimiter(*rateLimit, *rateWindow)
		if err != nil {
			logger.Error("rate limiter rejected", "err", err.Error())
			os.Exit(1)
		}
	}

	var ready atomic.Bool
	// serve.draining flips to 1 the moment SIGTERM lands: scrapes taken
	// during the drain window are distinguishable from healthy samples.
	var draining atomic.Int64
	reg.GaugeFunc("serve.draining", draining.Load)
	metricsBound := ""
	if *metricsAddr != "" {
		bound, stop, err := obs.ServeOpts(*metricsAddr, obs.HTTPOptions{Ready: ready.Load, Flight: flight, Traces: traces, SLO: slo}, reg)
		if err != nil {
			logger.Error("metrics listener failed", "addr", *metricsAddr, "err", err.Error())
			os.Exit(1)
		}
		defer stop(context.Background())
		metricsBound = bound
	}

	if *profileDir != "" {
		stopProf, err := obs.StartProfileLoop(obs.ProfileLoopOptions{
			Dir:   *profileDir,
			Every: *profileEvery,
			Log:   logger,
		})
		if err != nil {
			logger.Error("profile loop failed", "dir", *profileDir, "err", err.Error())
			os.Exit(1)
		}
		defer stopProf()
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("listen failed", "addr", *listen, "err", err.Error())
		os.Exit(1)
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

	// SIGQUIT dumps the flight recorder to stderr and keeps serving —
	// the in-production "what just happened" escape hatch. Registering
	// the handler replaces the runtime's kill-with-stack-dump default.
	if flight != nil {
		quitCh := make(chan os.Signal, 1)
		signal.Notify(quitCh, syscall.SIGQUIT)
		go func() {
			for range quitCh {
				if err := flight.WriteJSON(os.Stderr); err != nil {
					logger.Warn("flight dump failed", "err", err.Error())
				}
			}
		}()
	}

	// Shutdown summary on SIGINT/SIGTERM: what the server did with its
	// uptime, from the same registry the metrics endpoint serves.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
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
			"requests_ok", snap.Counters["requests.completed"],
			"requests_evicted", snap.Counters["requests.evicted"],
			"rounds_served", snap.Counters["rounds.served"],
			"rounds_err", snap.Counters["rounds.errors"],
		)
		os.Exit(0)
	}()

	ctx := context.Background()
	for {
		conn, err := l.Accept()
		if err != nil {
			logger.Error("accept failed", "err", err.Error())
			os.Exit(1)
		}
		go func(conn net.Conn) {
			defer conn.Close()
			edge := stream.NewInstrumentedTCPEdge(conn, reg, "tcp")
			remote := conn.RemoteAddr().String()
			slog := logger.With("remote", remote)
			slog.Info("session opened")
			cfg := protocol.SessionConfig{
				Factor:        *factor,
				MaxWorkers:    *maxWorkers,
				Window:        *window,
				IdleTTL:       *idleTTL,
				Shed:          shed,
				Limiter:       limiter,
				Registry:      reg,
				Log:           slog,
				Flight:        flight,
				Traces:        traces,
				SLO:           slo,
				Profile:       srvProfile,
				ClearBoundary: *clearBoundary,
			}
			if err := protocol.ServeSessionConfig(ctx, edge, edge, netModel, cfg); err != nil {
				slog.Warn("session failed", "err", err.Error())
				return
			}
			slog.Info("session closed")
		}(conn)
	}
}
