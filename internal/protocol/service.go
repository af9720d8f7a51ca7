package protocol

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ppstream/internal/backend"
	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// This file implements the network session layer used by cmd/ppserver
// and cmd/ppclient: a data provider connects to the model-provider
// service, sends a Hello carrying its public key and the agreed scaling
// factor, and then drives the Figure 3 workflow round by round over the
// same connection pair.

// Hello is the data provider's session-setup frame.
type Hello struct {
	// N is the big-endian Paillier modulus (the public key).
	N []byte
	// Factor is the agreed parameter scaling factor.
	Factor int64
	// Workers requests a per-stage thread count on the server (bounded
	// by the server's own cap).
	Workers int
	// Profile is the deployment profile the client requests (additive:
	// empty from older clients selects privacy-max, the legacy
	// all-Paillier protocol). The server takes the stricter of this and
	// its own policy.
	Profile string
}

// maxHelloKeyBytes bounds the modulus a client may announce (32768-bit
// keys), so a hostile Hello cannot make the server allocate and exponentiate
// over arbitrarily large integers.
const maxHelloKeyBytes = 4096

// helloPublicKey validates the client's announced modulus and builds the
// session public key. A zero, tiny, or mismatched modulus would otherwise
// reach the linear kernel and fail deep inside ModInverse/Exp — reject it
// at the hello with a clear error.
func helloPublicKey(hello *Hello) (*paillier.PublicKey, error) {
	if len(hello.N) == 0 {
		return nil, errors.New("protocol: hello carries no public key")
	}
	if len(hello.N) > maxHelloKeyBytes {
		return nil, fmt.Errorf("protocol: hello public key is %d bytes, limit %d", len(hello.N), maxHelloKeyBytes)
	}
	n := new(big.Int).SetBytes(hello.N)
	pk := &paillier.PublicKey{N: n, N2: new(big.Int).Mul(n, n)}
	if err := pk.Validate(); err != nil {
		return nil, fmt.Errorf("protocol: hello public key rejected: %w", err)
	}
	return pk, nil
}

// roundFrame tags a wire envelope with its round index for the service
// loop. TC carries the request's distributed trace context; Spans carries
// the server's recorded spans back to the client on the final round's
// reply. Both fields are gob-compatible extensions: frames from peers
// predating them decode with the fields nil, and old peers skip them.
type roundFrame struct {
	Round int
	Env   *WireEnvelope
	TC    *TraceContext
	Spans []WireSpan
	// DeadlineMS is the client's remaining per-request budget in
	// milliseconds at send time — relative, so no cross-party clock sync
	// is needed. Zero means no deadline (including frames from peers
	// predating the field). The server refreshes its absolute deadline
	// from this on every frame and evicts expired requests.
	DeadlineMS int64
	// Plan and Profile ride the server's round-0 reply: the session's
	// solved per-round backend assignment (backend.Kind wire codes) and
	// the effective profile it was solved under. Additive: replies from
	// servers predating backend negotiation carry neither, and the client
	// falls back to the legacy all-Paillier protocol.
	Plan    []int32
	Profile string
}

// RegisterServiceWire registers the session frame types with gob.
func RegisterServiceWire() {
	RegisterWire()
	stream.RegisterWireType(&Hello{})
	stream.RegisterWireType(&roundFrame{})
}

// SessionConfig parameterizes the server side of one multiplexed
// session.
type SessionConfig struct {
	// Factor is the parameter scaling factor the server insists on.
	Factor int64
	// MaxWorkers bounds the per-stage threads a client may request.
	MaxWorkers int
	// Window bounds how many round frames the session processes
	// concurrently (different requests interleave on one connection
	// pair); <= 0 uses DefaultSessionWindow.
	Window int
	// IdleTTL evicts per-request obfuscation state after this much
	// inactivity, so abandoned requests (client crash, mid-protocol
	// error) stop leaking permutations; <= 0 uses DefaultIdleTTL.
	IdleTTL time.Duration
	// Shed, when non-nil, is the admission controller consulted before a
	// request's first round creates any per-request state. Share one
	// Shedder across every session of a server so the in-flight bound is
	// global; rejected requests get a retryable CodeShed error frame.
	Shed *Shedder
	// Limiter, when non-nil, bounds new-request admissions per window
	// (the paper's model-extraction countermeasure). Rejections travel
	// as retryable CodeThrottled error frames.
	Limiter *RateLimiter
	// Registry, when non-nil, receives session metrics.
	Registry *obs.Registry
	// Log, when non-nil, receives structured session events — rejected
	// hellos, per-round failures, and rounds exceeding the logger's slow
	// threshold — each correlated by the request's trace ID.
	Log *obs.Logger
	// Flight, when non-nil, records every completed or failed request's
	// server-side trace (with cost profiles) into the flight recorder's
	// bounded rings for /debug/flight and SIGQUIT dumps.
	Flight *obs.FlightRecorder
	// Traces, when non-nil, offers every completed or failed request's
	// server-side trace to the tail-sampling span store (errors always
	// kept, slowest-K per window, deterministic trace-ID sample of the
	// rest) for /debug/traces.
	Traces *obs.TraceStore
	// SLO, when non-nil, receives one Observe per finished request — the
	// server-observed request latency (first-round arrival to last-round
	// completion) and whether it failed — feeding the burn-rate engine.
	// Share one engine across sessions so objectives are server-global.
	SLO *obs.SLOEngine
	// Profile is the server's deployment-profile policy. The session runs
	// under the stricter of this and the client's requested profile, so
	// the default (empty = privacy-max) preserves the paper's original
	// all-Paillier protocol unless the operator explicitly relaxes it.
	Profile backend.Profile
	// ClearBoundary is the leakage-certified clear boundary: the first
	// linear round allowed to execute in plaintext (from an offline
	// internal/leakage.CertifyClearBoundary run). <= 0 means no round is
	// certified, so the clear backend is never assigned.
	ClearBoundary int
}

// DefaultSessionWindow is the concurrent-frame bound a session uses when
// SessionConfig.Window is unset.
const DefaultSessionWindow = 8

// DefaultIdleTTL is the per-request state eviction deadline used when
// SessionConfig.IdleTTL is unset.
const DefaultIdleTTL = 2 * time.Minute

// ServeSession runs the model-provider side of one client session: it
// reads the Hello, builds the role for the client's key, and answers
// each round until the client closes. maxWorkers bounds the per-stage
// threads a client may request.
func ServeSession(ctx context.Context, in, out stream.Edge, net *nn.Network, factor int64, maxWorkers int) error {
	return ServeSessionConfig(ctx, in, out, net, SessionConfig{Factor: factor, MaxWorkers: maxWorkers})
}

// ServeSessionObserved is ServeSession publishing session metrics to reg
// (which may be nil): "sessions.total" / "sessions.active",
// "rounds.served" / "rounds.errors", "requests.completed" /
// "requests.evicted", the aggregate per-round linear processing
// histogram "round.linear", and per-round-index histograms
// "round.<idx>.linear" mirroring the paper's per-stage latency tables.
func ServeSessionObserved(ctx context.Context, in, out stream.Edge, net *nn.Network, factor int64, maxWorkers int, reg *obs.Registry) error {
	return ServeSessionConfig(ctx, in, out, net, SessionConfig{Factor: factor, MaxWorkers: maxWorkers, Registry: reg})
}

// reqState is the session's per-request bookkeeping: the last round the
// request completed, when it was last seen (feeding idle eviction), and
// the server-side trace spans accumulated so far (shipped to the client
// with the final round's reply).
type reqState struct {
	lastRound int
	lastSeen  time.Time
	// started is the request's first-round arrival; the span between it
	// and last-round completion is the server-observed request latency
	// fed to the windowed serve.latency view and the SLO engine.
	started time.Time
	// deadline is the absolute point the client's propagated budget runs
	// out, refreshed from each frame's DeadlineMS; zero means none.
	deadline time.Time
	// shedHeld marks that this request holds an admission slot in the
	// session's shared Shedder, released when the entry is removed.
	shedHeld bool
	spans    []obs.Segment
}

// sessionReqs tracks live requests under one session. Admission-slot
// release is tied to entry removal (drop, expire, session close) so a
// slot can never be released twice or leak past the request.
type sessionReqs struct {
	shed *Shedder // may be nil: admit everything
	mu   sync.Mutex
	live map[uint64]*reqState
}

// admitResult classifies what admit decided for one round frame.
type admitResult int

const (
	// admitOK: the request is live (created now or known) and may process.
	admitOK admitResult = iota
	// admitStale: a round > 0 frame for a request with no live state —
	// it was evicted (idle or deadline) or never admitted; its
	// obfuscation chain is gone, so the frame must be rejected.
	admitStale
	// admitShed: admission control rejected a new request's first round.
	admitShed
)

// admit is the session's single admission point: it creates state for a
// new request's round-0 frame (consulting the shedder first), refreshes
// bookkeeping for known requests, and rejects stale mid-protocol frames.
// arrived stamps a new request's start; deadline, when non-zero,
// replaces the request's eviction deadline.
func (s *sessionReqs) admit(req uint64, round int, arrived time.Time, deadline time.Time) (admitResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.live[req]
	if st == nil {
		if round > 0 {
			return admitStale, nil
		}
		//pplint:ignore pairedrelease the slot's ownership transfers to s.live[req] (shedHeld) on the success path; release happens at drop/expire/releaseAll when the entry leaves the live map, not in this frame
		if err := s.shed.Acquire(); err != nil {
			return admitShed, err
		}
		st = &reqState{shedHeld: s.shed != nil, started: arrived}
		s.live[req] = st
	}
	st.lastRound = round
	st.lastSeen = time.Now()
	if !deadline.IsZero() {
		st.deadline = deadline
	}
	return admitOK, nil
}

// addSpans appends server-side trace segments to a live request. The
// client keeps at most one frame of a request in flight, so per-request
// appends never race with themselves.
func (s *sessionReqs) addSpans(req uint64, segs ...obs.Segment) {
	s.mu.Lock()
	if st := s.live[req]; st != nil {
		st.spans = append(st.spans, segs...)
	}
	s.mu.Unlock()
}

// takeSpans returns the request's accumulated spans and its first-round
// arrival time (zero when the request is unknown).
func (s *sessionReqs) takeSpans(req uint64) ([]obs.Segment, time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.live[req]; st != nil {
		return st.spans, st.started
	}
	return nil, time.Time{}
}

func (s *sessionReqs) drop(req uint64) {
	s.mu.Lock()
	st := s.live[req]
	delete(s.live, req)
	s.mu.Unlock()
	if st != nil && st.shedHeld {
		s.shed.Release()
	}
}

// expire removes requests idle longer than ttl (returned in idle) and
// requests whose propagated deadline has passed (returned in expired).
func (s *sessionReqs) expire(ttl time.Duration) (idle, expired []uint64) {
	now := time.Now()
	cutoff := now.Add(-ttl)
	released := 0
	s.mu.Lock()
	for req, st := range s.live {
		switch {
		case !st.deadline.IsZero() && now.After(st.deadline):
			expired = append(expired, req)
		case st.lastSeen.Before(cutoff):
			idle = append(idle, req)
		default:
			continue
		}
		if st.shedHeld {
			released++
		}
		delete(s.live, req)
	}
	s.mu.Unlock()
	for ; released > 0; released-- {
		s.shed.Release()
	}
	return idle, expired
}

// releaseAll drops every live entry, releasing held admission slots —
// the session is ending and its shedder outlives it.
func (s *sessionReqs) releaseAll() {
	released := 0
	s.mu.Lock()
	for req, st := range s.live {
		if st.shedHeld {
			released++
		}
		delete(s.live, req)
	}
	s.mu.Unlock()
	for ; released > 0; released-- {
		s.shed.Release()
	}
}

func (s *sessionReqs) count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.live))
}

// ServeSessionConfig runs one multiplexed model-provider session: round
// frames from different in-flight requests interleave on the connection
// pair, are processed concurrently up to cfg.Window, and are answered
// tagged with the request ID they carry in Seq so the client can demux.
// Per-request obfuscation state is dropped when a request finishes its
// last round and evicted after cfg.IdleTTL of inactivity.
func ServeSessionConfig(ctx context.Context, in, out stream.Edge, net *nn.Network, cfg SessionConfig) error {
	reg := cfg.Registry
	window := cfg.Window
	if window <= 0 {
		window = DefaultSessionWindow
	}
	ttl := cfg.IdleTTL
	if ttl <= 0 {
		ttl = DefaultIdleTTL
	}
	var roundsServed, roundErrs *obs.Counter
	var roundTime, kernelTime, permuteTime *obs.Histogram
	var liveLatency *obs.WindowedHistogram
	var liveOK, liveErr, liveShed *obs.WindowedCounter
	if reg != nil {
		reg.Counter("sessions.total").Inc()
		active := reg.Gauge("sessions.active")
		active.Add(1)
		defer active.Add(-1)
		roundsServed = reg.Counter("rounds.served")
		roundErrs = reg.Counter("rounds.errors")
		roundTime = reg.Histogram("round.linear")
		kernelTime = reg.Histogram("round.kernel")
		permuteTime = reg.Histogram("round.permute")
		// Windowed views of the serving outcome: what the server is doing
		// NOW, for /debug/live, ppbench top, and the SLO engine's peers.
		liveLatency = reg.LiveHistogram("serve.latency")
		liveOK = reg.LiveCounter("serve.requests.ok")
		liveErr = reg.LiveCounter("serve.requests.err")
		liveShed = reg.LiveCounter("serve.requests.shed")
	}
	first, err := in.Recv(ctx)
	if err != nil {
		return fmt.Errorf("protocol: session hello: %w", err)
	}
	hello, ok := first.Payload.(*Hello)
	if !ok {
		return fmt.Errorf("protocol: expected Hello, got %T", first.Payload)
	}
	if hello.Factor != cfg.Factor {
		return fmt.Errorf("protocol: client factor %d does not match server's %d", hello.Factor, cfg.Factor)
	}
	pk, err := helloPublicKey(hello)
	if err != nil {
		cfg.Log.Warn("session hello rejected", "err", err.Error())
		// Reject the session but tell the client why: an error frame
		// outside any request is session-fatal on the client side.
		if out != nil {
			_ = out.Send(ctx, &stream.Message{Seq: first.Seq, Err: err.Error()})
		}
		return err
	}
	workers := hello.Workers
	if workers < 1 {
		workers = 1
	}
	if cfg.MaxWorkers > 0 && workers > cfg.MaxWorkers {
		workers = cfg.MaxWorkers
	}
	// Backend negotiation: the session runs under the stricter of the
	// server's policy and the client's request. A malformed profile is a
	// session-fatal hello error, like a bad key.
	reqProfile, err := backend.ParseProfile(hello.Profile)
	if err != nil {
		cfg.Log.Warn("session hello rejected", "err", err.Error())
		if out != nil {
			_ = out.Send(ctx, &stream.Message{Seq: first.Seq, Err: err.Error()})
		}
		return err
	}
	srvProfile, err := backend.ParseProfile(string(cfg.Profile))
	if err != nil {
		return fmt.Errorf("protocol: session profile policy: %w", err)
	}
	effProfile := backend.Stricter(srvProfile, reqProfile)
	mp, err := BuildModelProvider(net, pk, Config{Factor: cfg.Factor, Workers: workers})
	if err != nil {
		return fmt.Errorf("protocol: building provider for session: %w", err)
	}
	// Solve the per-round backend assignment for this session. An
	// uncertified boundary (<= 0) clamps to the round count: no clear
	// execution anywhere.
	boundary := cfg.ClearBoundary
	if boundary <= 0 {
		boundary = mp.Stages()
	}
	plan, err := backend.PlanFor(effProfile, mp.LayerInfos(), boundary, pk.N.BitLen())
	if err != nil {
		return fmt.Errorf("protocol: solving backend plan: %w", err)
	}
	if err := mp.SetBackendPlan(plan.Assignment); err != nil {
		return err
	}
	planCodes := plan.Codes()
	// The plan as backend-kind strings, attached to flight records so
	// /debug/flight entries join against the span store and show which
	// backend mix produced each trace.
	planStrs := make([]string, len(plan.Assignment))
	for i, k := range plan.Assignment {
		planStrs[i] = string(k)
	}
	paillierRounds := 0
	for _, k := range plan.Assignment {
		if k == backend.PaillierHE {
			paillierRounds++
		}
	}
	cfg.Log.Info("session plan solved",
		"profile", string(effProfile), "boundary", plan.Boundary,
		"paillier_rounds", paillierRounds, "rounds", mp.Stages())
	// Per-session blinding pool: every packed reply ciphertext is
	// re-randomized, and pooled r^n factors keep those exponentiations off
	// the round-trip critical path. Each precomputed factor is one real
	// modular exponentiation the fill worker performs off-path, so it is
	// charged into the process-wide modexp counter here — per-request
	// meters only ever see the pool misses they caused inline. The pool
	// is sized to the plan's actual Paillier rounds: a mixed or latency
	// session that runs most rounds on ss-gc or clear precomputes less.
	var poolOpts []paillier.PoolOption
	if reg != nil {
		poolModExps := reg.Counter("cost.modexps")
		poolOpts = append(poolOpts, paillier.WithPrecomputeHook(poolModExps.Add))
	}
	poolSize := 24 * paillierRounds
	if poolSize > 64 {
		poolSize = 64
	}
	if poolSize < 8 {
		poolSize = 8
	}
	blind := paillier.NewPool(pk, nil, poolSize, 1, poolOpts...)
	defer blind.Close()
	if reg != nil {
		reg.GaugeFunc("pool.workers.alive", blind.AliveWorkers)
	}
	mp.SetBlindPool(blind)
	mp.Instrument(reg)
	if cfg.Limiter != nil {
		mp.SetLimiter(cfg.Limiter)
	}
	lastRound := mp.Stages() - 1

	reqs := &sessionReqs{shed: cfg.Shed, live: map[uint64]*reqState{}}
	// The shedder outlives this session: return any slots still held by
	// live requests when the session ends, whatever the reason.
	defer reqs.releaseAll()
	if reg != nil {
		reg.GaugeFunc("requests.active", reqs.count)
	}
	// Janitor: evict per-request state abandoned mid-protocol so it does
	// not accumulate for the life of the session.
	janitorDone := make(chan struct{})
	defer close(janitorDone)
	go func() {
		tick := ttl / 4
		if tick < 10*time.Millisecond {
			tick = 10 * time.Millisecond
		}
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		for {
			select {
			case <-janitorDone:
				return
			case <-ctx.Done():
				return
			case <-ticker.C:
				idle, expired := reqs.expire(ttl)
				for _, req := range idle {
					mp.Forget(req)
					if reg != nil {
						reg.Counter("requests.evicted").Inc()
					}
				}
				for _, req := range expired {
					mp.Forget(req)
					if reg != nil {
						reg.Counter("requests.deadline_evicted").Inc()
					}
				}
			}
		}
	}()

	// Frame workers: each round frame is handled in its own goroutine
	// (bounded by window) so independent requests genuinely overlap on
	// the linear stages. Per-request ordering is preserved by the client,
	// which never has more than one outstanding frame per request.
	var (
		wg      sync.WaitGroup
		sem     = make(chan struct{}, window)
		fatalMu sync.Mutex
		fatal   error
	)
	recordFatal := func(err error) {
		fatalMu.Lock()
		if fatal == nil {
			fatal = err
		}
		fatalMu.Unlock()
	}
	sessionErr := func() error {
		fatalMu.Lock()
		defer fatalMu.Unlock()
		return fatal
	}
	handle := func(msg *stream.Message, frame *roundFrame, arrived time.Time) {
		start := time.Now()
		queueWait := start.Sub(arrived)
		slog := cfg.Log
		traceID := ""
		if frame.TC.valid() {
			slog = slog.WithTrace(frame.TC.ID)
			traceID = frame.TC.ID
		}
		env, err := FromWire(frame.Env, pk)
		if err != nil {
			// Malformed client frame: reply with an error message but
			// keep the session alive.
			if roundErrs != nil {
				roundErrs.Inc()
			}
			slog.Warn("malformed round frame", "round", frame.Round, "err", err.Error())
			if sendErr := out.Send(ctx, &stream.Message{Seq: msg.Seq, Err: err.Error()}); sendErr != nil {
				recordFatal(sendErr)
			}
			return
		}
		// reject answers a frame with a typed error and no processing; the
		// code tells the client whether a retry can succeed.
		reject := func(cause error) {
			if roundErrs != nil {
				roundErrs.Inc()
			}
			slog.Warn("round rejected", "req", env.Req, "round", frame.Round, "err", cause.Error())
			if sendErr := out.Send(ctx, &stream.Message{
				Seq: msg.Seq, Err: cause.Error(), ErrCode: codeOf(cause),
			}); sendErr != nil {
				recordFatal(sendErr)
			}
		}
		var deadline time.Time
		if frame.DeadlineMS > 0 {
			deadline = arrived.Add(time.Duration(frame.DeadlineMS) * time.Millisecond)
		}
		switch verdict, admitErr := reqs.admit(env.Req, frame.Round, arrived, deadline); verdict {
		case admitStale:
			// The janitor evicted this request's state (idle or deadline)
			// while the client was still driving rounds: its permutation
			// chain is gone, so processing the frame would return garbage.
			// Answer with a clean typed error instead.
			if reg != nil {
				reg.Counter("requests.stale_rounds").Inc()
			}
			reject(fmt.Errorf("%w: no state for request %d round %d", ErrEvicted, env.Req, frame.Round))
			return
		case admitShed:
			if liveShed != nil {
				liveShed.Inc()
			}
			// A shed request is availability-bad; its empty server tree is
			// still offered to the span store (always-keep on error) so the
			// rejection is joinable by trace ID.
			cfg.SLO.Observe(0, true)
			cfg.Traces.Record(serverTree(traceID, env.Req, nil), admitErr)
			reject(admitErr)
			return
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			// The budget ran out while the frame sat in the session queue;
			// processing it would waste crypto work the client will discard.
			if reg != nil {
				reg.Counter("requests.deadline_expired").Inc()
			}
			spans, started := reqs.takeSpans(env.Req)
			if started.IsZero() {
				started = arrived
			}
			deadlineErr := fmt.Errorf("%w: request %d budget of %dms spent before round %d started",
				ErrDeadline, env.Req, frame.DeadlineMS, frame.Round)
			if liveErr != nil {
				liveErr.Inc()
			}
			cfg.SLO.Observe(time.Since(started), true)
			cfg.Traces.Record(serverTree(traceID, env.Req, spans), deadlineErr)
			reqs.drop(env.Req)
			mp.Forget(env.Req)
			reject(deadlineErr)
			return
		}
		// One meter per round frame: round index == linear-stage index, so
		// the snapshot IS the per-layer cost profile the trace segment
		// carries. Profiling labels attribute CPU samples the same way.
		var meter obs.CostMeter
		var result *Envelope
		var timing LinearTiming
		pprof.Do(ctx, pprof.Labels(
			"stage", "linear",
			"round", strconv.Itoa(frame.Round),
			"trace", traceID,
		), func(context.Context) {
			result, timing, err = mp.ProcessLinearMetered(frame.Round, env, &meter)
		})
		elapsed := time.Since(start)
		if reg != nil {
			roundTime.Observe(elapsed)
			kernelTime.Observe(timing.Kernel)
			permuteTime.Observe(timing.Permute)
			reg.Histogram(fmt.Sprintf("round.%d.linear", frame.Round)).Observe(elapsed)
		}
		if err != nil {
			if roundErrs != nil {
				roundErrs.Inc()
			}
			slog.Warn("round failed", "req", env.Req, "round", frame.Round, "err", err.Error())
			spans, started := reqs.takeSpans(env.Req)
			if started.IsZero() {
				started = arrived
			}
			tree := serverTree(traceID, env.Req, spans)
			cfg.Flight.RecordPlan(tree, planStrs, err)
			cfg.Traces.Record(tree, err)
			if liveErr != nil {
				liveErr.Inc()
			}
			cfg.SLO.Observe(time.Since(started), true)
			// The request is dead on this side: release its permutation
			// state now rather than waiting for the TTL.
			reqs.drop(env.Req)
			mp.Forget(env.Req)
			if sendErr := out.Send(ctx, &stream.Message{
				Seq: msg.Seq, Err: err.Error(), ErrCode: codeOf(err),
			}); sendErr != nil {
				recordFatal(sendErr)
			}
			return
		}
		cfg.Shed.Observe(elapsed)
		slog.Slow("slow linear round", elapsed,
			"req", env.Req, "round", frame.Round,
			"kernel_ms", float64(timing.Kernel)/float64(time.Millisecond),
			"permute_ms", float64(timing.Permute)/float64(time.Millisecond),
			"pack_ms", float64(timing.Pack)/float64(time.Millisecond))
		wireEnv, err := ToWire(result)
		if err != nil {
			recordFatal(err)
			return
		}
		// This round's cost profile: the metered crypto ops plus the
		// activation traffic both ways. It rides on the kernel segment
		// (the work it explains) and folds into both the process-wide
		// cost counters and the executing backend's labeled counters
		// (cost.paillier_he.*, cost.ss_gc.*, cost.clear.*).
		roundKind := mp.RoundBackend(frame.Round)
		cost := meter.Snapshot()
		cost.CipherBytesIn = frame.Env.CipherBytes()
		cost.CipherBytesOut = wireEnv.CipherBytes()
		obs.AddCostToRegistry(reg, cost)
		obs.AddCostToRegistryLabeled(reg, roundKind.MetricName(), cost)
		// Record this round's server spans under the request; on the last
		// round they travel back to the client for the merged trace tree.
		// The kernel span carries the backend that executed it, so the
		// merged TraceTree shows the ILP's per-round assignment.
		reqs.addSpans(env.Req,
			obs.Segment{Party: "server", Name: "queue", Round: frame.Round, Dur: queueWait},
			obs.Segment{Party: "server", Name: "kernel", Round: frame.Round, Dur: timing.Kernel, Cost: &cost, Backend: string(roundKind)},
			obs.Segment{Party: "server", Name: "permute", Round: frame.Round, Dur: timing.Permute},
			obs.Segment{Party: "server", Name: "pack", Round: frame.Round, Dur: timing.Pack},
		)
		reply := &roundFrame{Round: frame.Round, Env: wireEnv, TC: frame.TC}
		if frame.Round == 0 {
			// The solved plan rides every round-0 reply (requests share the
			// session plan, so repeats are idempotent on the client).
			reply.Plan = planCodes
			reply.Profile = string(effProfile)
		}
		if frame.Round == lastRound {
			// The request's last linear round: its obfuscation state is
			// fully consumed; drop the entry instead of leaking it.
			spans, started := reqs.takeSpans(env.Req)
			if started.IsZero() {
				started = arrived
			}
			reply.Spans = toWireSpans(spans)
			tree := serverTree(traceID, env.Req, spans)
			cfg.Flight.RecordPlan(tree, planStrs, nil)
			cfg.Traces.Record(tree, nil)
			// The server-observed request latency: first-round arrival to
			// last-round completion, queueing included.
			reqLatency := time.Since(started)
			if liveLatency != nil {
				liveLatency.Observe(reqLatency)
				liveOK.Inc()
			}
			cfg.SLO.Observe(reqLatency, false)
			reqs.drop(env.Req)
			mp.Forget(env.Req)
			if reg != nil {
				reg.Counter("requests.completed").Inc()
			}
		}
		if roundsServed != nil {
			roundsServed.Inc()
		}
		if err := out.Send(ctx, &stream.Message{Seq: msg.Seq, Payload: reply}); err != nil {
			recordFatal(err)
		}
	}
	var loopErr error
	for loopErr == nil && sessionErr() == nil {
		msg, err := in.Recv(ctx)
		if err != nil {
			if !errors.Is(err, stream.ErrEdgeClosed) {
				loopErr = err
			}
			break
		}
		frame, ok := msg.Payload.(*roundFrame)
		if !ok {
			loopErr = fmt.Errorf("protocol: expected round frame, got %T", msg.Payload)
			break
		}
		arrived := time.Now()
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			loopErr = ctx.Err()
		}
		if loopErr != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			handle(msg, frame, arrived)
		}()
	}
	wg.Wait()
	// Polite termination: tell the client no more replies are coming so
	// its reader goroutine unblocks.
	if out != nil {
		_ = out.CloseSend()
	}
	if loopErr != nil {
		return loopErr
	}
	return sessionErr()
}

// serverTree assembles the server-side view of one request for the
// flight recorder: the spans accumulated so far under the request's
// trace ID (or a request-derived ID for untraced clients), with Total as
// the server's summed busy time — the server cannot know the client's
// end-to-end latency.
func serverTree(traceID string, req uint64, spans []obs.Segment) *obs.TraceTree {
	if traceID == "" {
		traceID = "req-" + strconv.FormatUint(req, 10)
	}
	tree := &obs.TraceTree{ID: traceID, Segments: spans}
	tree.Total = tree.Sum()
	return tree
}

// ClientOptions parameterizes the data-provider session client.
type ClientOptions struct {
	// Workers is the per-stage thread count (local non-linear stages and
	// the requested server-side count).
	Workers int
	// Window bounds concurrent in-flight Infer calls on the session
	// (wire-level multiplexing backpressure); <= 0 uses
	// DefaultClientWindow.
	Window int
	// Deadline bounds each Infer end to end. The remaining budget is
	// propagated to the server in every round frame so it can evict the
	// request (and stop burning crypto cycles) the moment the budget is
	// spent. Zero means no deadline beyond the call's ctx, whose own
	// deadline is propagated the same way.
	Deadline time.Duration
	// Retry bounds in-session retries of a request's first round after a
	// retryable rejection (throttle, shed). Mid-protocol rounds are never
	// retried: the server's permutation state advances per round, so a
	// resend would desynchronize the obfuscation chain. The zero value
	// uses the RetryPolicy defaults.
	Retry RetryPolicy
	// Registry, when non-nil, receives "retry.attempts" and
	// "retry.giveups" counters for the in-session round-0 retries.
	Registry *obs.Registry
	// Profile is the deployment profile to request from the server
	// (empty = privacy-max, the legacy protocol). The session runs the
	// stricter of this and the server's policy; the client validates the
	// server's solved plan against that before honoring it.
	Profile backend.Profile
}

// DefaultClientWindow is the in-flight bound a client uses when
// ClientOptions.Window is unset.
const DefaultClientWindow = 8

// Client drives the data-provider side of a remote session. The session
// multiplexes one connection pair: concurrent Infer calls interleave
// their round frames on the wire, tagged by request ID, and a reader
// goroutine demuxes the server's replies — so one connection carries
// Window in-flight inferences at once.
type Client struct {
	dp       *DataProvider
	pk       *paillier.PublicKey
	in       stream.Edge // frames from the server
	out      stream.Edge // frames to the server
	rounds   int
	window   chan struct{}
	nextID   atomic.Uint64
	deadline time.Duration
	retry    RetryPolicy
	profile  backend.Profile

	planMu  sync.Mutex
	planSet bool

	retryAttempts *obs.Counter
	retryGiveups  *obs.Counter

	mu      sync.Mutex
	pending map[uint64]chan *stream.Message
	err     error

	readerDone chan struct{}
}

// NewClient builds the data-provider role, sends the Hello, and returns
// a client ready to Infer with the default in-flight window. The
// architecture network may be a skeleton; its linear weights are not
// read.
func NewClient(ctx context.Context, in, out stream.Edge, arch *nn.Network, sk *paillier.PrivateKey, factor int64, workers int) (*Client, error) {
	return NewClientOpts(ctx, in, out, arch, sk, factor, ClientOptions{Workers: workers})
}

// NewClientOpts is NewClient with an explicit in-flight window. ctx
// bounds the session's reader goroutine as well as the Hello send.
func NewClientOpts(ctx context.Context, in, out stream.Edge, arch *nn.Network, sk *paillier.PrivateKey, factor int64, opts ClientOptions) (*Client, error) {
	dp, err := BuildDataProvider(arch, sk, Config{Factor: factor, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	merged, err := validateWorkflow(arch)
	if err != nil {
		return nil, err
	}
	rounds := 0
	for _, m := range merged {
		if m.Kind == nn.Linear {
			rounds++
		}
	}
	window := opts.Window
	if window <= 0 {
		window = DefaultClientWindow
	}
	profile, err := backend.ParseProfile(string(opts.Profile))
	if err != nil {
		return nil, err
	}
	hello := &Hello{N: sk.N.Bytes(), Factor: factor, Workers: opts.Workers, Profile: string(profile)}
	if err := out.Send(ctx, &stream.Message{Payload: hello}); err != nil {
		return nil, err
	}
	c := &Client{
		dp: dp, pk: &sk.PublicKey, in: in, out: out, rounds: rounds,
		window:     make(chan struct{}, window),
		pending:    map[uint64]chan *stream.Message{},
		readerDone: make(chan struct{}),
		deadline:   opts.Deadline,
		retry:      opts.Retry.withDefaults(),
		profile:    profile,
	}
	if opts.Registry != nil {
		c.retryAttempts = opts.Registry.Counter("retry.attempts")
		c.retryGiveups = opts.Registry.Counter("retry.giveups")
	}
	go c.readLoop(ctx)
	return c, nil
}

// readLoop demuxes server replies to the Infer call that owns the
// request ID in Seq. An error frame outside any live request (e.g. a
// Hello rejection) and any transport error are session-fatal: every
// in-flight and future Infer fails with the recorded cause.
func (c *Client) readLoop(ctx context.Context) {
	defer close(c.readerDone)
	for {
		msg, err := c.in.Recv(ctx)
		if err != nil {
			if errors.Is(err, stream.ErrEdgeClosed) {
				c.fatal(errors.New("protocol: session closed by server"))
			} else {
				c.fatal(err)
			}
			return
		}
		c.mu.Lock()
		ch := c.pending[msg.Seq]
		c.mu.Unlock()
		if ch == nil {
			if msg.Err != "" {
				c.fatal(fmt.Errorf("protocol: server rejected session: %s", msg.Err))
				return
			}
			continue // stray reply for an abandoned request
		}
		ch <- msg // buffered: at most one outstanding frame per request
	}
}

// fatal records the session's terminal error and wakes every in-flight
// Infer. The error is marked ErrSessionDown: whatever tore the session
// down, no mid-protocol state survives it on either side, so a caller
// holding a Redialer may safely retry whole inferences on a fresh one.
func (c *Client) fatal(err error) {
	c.mu.Lock()
	if c.err == nil {
		if !errors.Is(err, ErrSessionDown) {
			err = fmt.Errorf("%w: %w", ErrSessionDown, err)
		}
		c.err = err
	}
	for req, ch := range c.pending {
		close(ch)
		delete(c.pending, req)
	}
	c.mu.Unlock()
}

func (c *Client) sessionErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return fmt.Errorf("%w: session closed", ErrSessionDown)
}

// Infer runs one private inference against the remote model provider.
// Safe for concurrent use: up to Window calls proceed in parallel over
// the session's single connection pair, each exchanging its own round
// frames. A server-side per-request failure fails only that call; the
// session stays alive for the others.
func (c *Client) Infer(ctx context.Context, x *tensor.Dense) (*tensor.Dense, error) {
	res, _, err := c.InferTraced(ctx, x)
	return res, err
}

// InferTraced is Infer returning the request's merged cross-party trace:
// the client's own spans (window queueing, input encryption, per-round
// non-linear evaluation), the server's spans shipped back in the final
// round frame, and per-round "wire" segments inferred as the client
// round-trip minus the server's busy time — durations only, so no clock
// synchronization between the parties is needed. The tree is nil when
// the inference fails, and degrades to client+wire spans against a
// server predating trace propagation.
func (c *Client) InferTraced(ctx context.Context, x *tensor.Dense) (*tensor.Dense, *obs.TraceTree, error) {
	begin := time.Now()
	// The effective deadline is the tighter of the client's configured
	// per-request budget (measured from entry, so window queueing counts)
	// and the caller's ctx deadline. It is re-measured at every round
	// send and the remaining budget shipped to the server.
	var deadline time.Time
	if c.deadline > 0 {
		deadline = begin.Add(c.deadline)
	}
	if ctxDeadline, ok := ctx.Deadline(); ok && (deadline.IsZero() || ctxDeadline.Before(deadline)) {
		deadline = ctxDeadline
	}
	select {
	case c.window <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	defer func() { <-c.window }()
	queueWait := time.Since(begin)

	req := c.nextID.Add(1)
	tc := &TraceContext{Ver: TraceV1, ID: obs.NewTraceID()}
	ch := make(chan *stream.Message, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, nil, err
	}
	c.pending[req] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, req)
		c.mu.Unlock()
	}()

	encStart := time.Now()
	var encMeter obs.CostMeter
	env, err := c.dp.EncryptMetered(req, x, &encMeter)
	if err != nil {
		return nil, nil, err
	}
	encDur := time.Since(encStart)
	encCost := encMeter.Snapshot()

	roundtrips := make([]time.Duration, c.rounds)
	nonlinear := make([]time.Duration, c.rounds)
	wireCosts := make([]obs.CostStats, c.rounds)
	nlCosts := make([]obs.CostStats, c.rounds)
	var serverSegs []obs.Segment
	for round := 0; round < c.rounds; round++ {
		rtStart := time.Now()
		w, err := ToWire(env)
		if err != nil {
			return nil, nil, err
		}
		wireCosts[round].CipherBytesOut = w.CipherBytes()
		var msg *stream.Message
		for attempt := 1; ; attempt++ {
			frame := &roundFrame{Round: round, Env: w, TC: tc}
			if !deadline.IsZero() {
				remaining := time.Until(deadline)
				if remaining <= 0 {
					return nil, nil, fmt.Errorf("%w: budget spent before round %d", ErrDeadline, round)
				}
				if frame.DeadlineMS = remaining.Milliseconds(); frame.DeadlineMS < 1 {
					frame.DeadlineMS = 1
				}
			}
			if err := c.out.Send(ctx, &stream.Message{Seq: req, Payload: frame}); err != nil {
				if ctx.Err() != nil {
					return nil, nil, err
				}
				return nil, nil, fmt.Errorf("%w: %w", ErrSessionDown, err)
			}
			select {
			case m, ok := <-ch:
				if !ok {
					return nil, nil, c.sessionErr()
				}
				msg = m
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
			if msg.Err == "" {
				break
			}
			rerr := &RoundError{Round: round, Code: msg.ErrCode, Msg: msg.Err}
			// Only a first-round throttle/shed rejection is retryable in
			// session: the server rejected it before creating any
			// per-request state, so resending the identical frame starts
			// clean. Later rounds are non-idempotent — the server's
			// permutation state advances each round — and fail through.
			if round != 0 || !Retryable(rerr) {
				return nil, nil, rerr
			}
			if attempt >= c.retry.MaxAttempts {
				if c.retryGiveups != nil {
					c.retryGiveups.Inc()
				}
				return nil, nil, fmt.Errorf("protocol: retries exhausted: %w", rerr)
			}
			if c.retryAttempts != nil {
				c.retryAttempts.Inc()
			}
			if err := retrySleep(ctx, c.retry.backoff(attempt)); err != nil {
				return nil, nil, err
			}
		}
		frame, ok := msg.Payload.(*roundFrame)
		if !ok {
			return nil, nil, fmt.Errorf("protocol: expected round frame, got %T", msg.Payload)
		}
		if round == 0 {
			// The server's solved backend plan rides the round-0 reply;
			// validate it against the requested profile's safety rules
			// before the session honors it.
			if err := c.applyPlan(frame); err != nil {
				return nil, nil, err
			}
		}
		wireCosts[round].CipherBytesIn = frame.Env.CipherBytes()
		env, err = FromWire(frame.Env, c.pk)
		if err != nil {
			return nil, nil, err
		}
		roundtrips[round] = time.Since(rtStart)
		if len(frame.Spans) > 0 {
			serverSegs = append(serverSegs, fromWireSpans(frame.Spans)...)
		}
		env.Req = req
		nlStart := time.Now()
		var nlMeter obs.CostMeter
		env, err = c.dp.ProcessNonLinearMetered(round, env, &nlMeter)
		if err != nil {
			return nil, nil, err
		}
		nonlinear[round] = time.Since(nlStart)
		nlCosts[round] = nlMeter.Snapshot()
	}
	if env.Result == nil {
		return nil, nil, errors.New("protocol: session ended without a result")
	}
	tree := mergeTrace(tc.ID, time.Since(begin), queueWait, encDur, roundtrips, nonlinear, serverSegs, encCost, wireCosts, nlCosts, c.dp.BackendPlan())
	return env.Result, tree, nil
}

// applyPlan installs the server's solved backend plan from a round-0
// reply, once per session. A reply without a plan (a server predating
// backend negotiation) leaves the legacy all-Paillier behavior in place.
// The plan is validated under the stricter of the client's requested
// profile and the server's announced one, so a privacy-max client
// rejects any plan that takes a round off Paillier.
func (c *Client) applyPlan(frame *roundFrame) error {
	if len(frame.Plan) == 0 {
		return nil
	}
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if c.planSet {
		return nil
	}
	kinds, err := backend.AssignmentFromCodes(frame.Plan)
	if err != nil {
		return fmt.Errorf("protocol: server plan: %w", err)
	}
	announced, err := backend.ParseProfile(frame.Profile)
	if err != nil {
		return fmt.Errorf("protocol: server plan: %w", err)
	}
	eff := backend.Stricter(c.profile, announced)
	if err := backend.ValidateAssignment(eff, kinds, c.rounds); err != nil {
		return fmt.Errorf("protocol: rejecting server plan: %w", err)
	}
	if err := c.dp.SetBackendPlan(kinds); err != nil {
		return err
	}
	c.planSet = true
	return nil
}

// mergeTrace builds the single cross-party TraceTree for one request:
// client spans in protocol order, the server's shipped spans slotted into
// their rounds, and a per-round "wire" segment inferred as the client's
// round-trip minus the server's busy time (clamped at zero if the
// server over-reports). Round -1 marks request-scoped client segments.
// Cost profiles ride on the segments they explain: encryption ops on
// client-encrypt, per-round ciphertext traffic on wire, decryption and
// re-encryption ops on client-nonlinear; the server's kernel costs arrive
// inside serverSegs.
func mergeTrace(id string, total, queueWait, encDur time.Duration, roundtrips, nonlinear []time.Duration, serverSegs []obs.Segment, encCost obs.CostStats, wireCosts, nlCosts []obs.CostStats, plan []backend.Kind) *obs.TraceTree {
	costOrNil := func(st obs.CostStats) *obs.CostStats {
		if st.IsZero() {
			return nil
		}
		c := st
		return &c
	}
	tree := &obs.TraceTree{ID: id, Total: total}
	tree.Segments = append(tree.Segments,
		obs.Segment{Party: "client", Name: "queue", Round: -1, Dur: queueWait},
		obs.Segment{Party: "client", Name: "encrypt", Round: -1, Dur: encDur, Cost: costOrNil(encCost)},
	)
	serverByRound := map[int]time.Duration{}
	for _, s := range serverSegs {
		serverByRound[s.Round] += s.Dur
	}
	for round := range roundtrips {
		wire := roundtrips[round] - serverByRound[round]
		if wire < 0 {
			wire = 0
		}
		wireSeg := obs.Segment{Party: "wire", Name: "wire", Round: round, Dur: wire}
		if round < len(wireCosts) {
			wireSeg.Cost = costOrNil(wireCosts[round])
		}
		tree.Segments = append(tree.Segments, wireSeg)
		for _, s := range serverSegs {
			if s.Round == round {
				tree.Segments = append(tree.Segments, s)
			}
		}
		nlSeg := obs.Segment{Party: "client", Name: "nonlinear", Round: round, Dur: nonlinear[round]}
		if round < len(nlCosts) {
			nlSeg.Cost = costOrNil(nlCosts[round])
		}
		if round < len(plan) {
			// Label the client's nonlinear work with the backend whose
			// round output it decoded (decrypt / gc-relu+open / plain).
			nlSeg.Backend = string(plan[round])
		}
		tree.Segments = append(tree.Segments, nlSeg)
	}
	return tree
}

// Close ends the session.
func (c *Client) Close() error { return c.out.CloseSend() }
