package protocol

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"net"
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
	// Profile is the deployment profile the client requests (empty
	// selects privacy-max, the all-Paillier protocol). The server takes
	// the stricter of this and its own policy.
	Profile string
}

// maxHelloKeyBytes bounds the modulus a client may announce (16384-bit
// keys, whose ciphertexts are the widest element an edge carries), so a
// hostile Hello cannot make the server allocate and exponentiate over
// arbitrarily large integers.
const maxHelloKeyBytes = stream.MaxWireElement / 2

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
// loop. TC carries the request's distributed trace context; on a reply,
// Spans carries the server's spans of that round back to the client.
type roundFrame struct {
	Round int
	Env   *WireEnvelope
	TC    *TraceContext
	Spans []obs.Segment
	// DeadlineMS is the client's remaining per-request budget in
	// milliseconds at send time — relative, so no cross-party clock sync
	// is needed. Zero means no deadline. The server refreshes its absolute
	// deadline from this on every frame and evicts expired requests.
	DeadlineMS int64
	// Plan and Profile ride the server's round-0 reply: the session's
	// solved per-round backend assignment (backend.Kind wire codes) and
	// the effective profile it was solved under. A reply that carries
	// neither leaves the client on the all-Paillier protocol.
	Plan    []int32
	Profile string
}

// RegisterServiceWire does nothing: the package registers its frame
// types' decoders when it is initialized. It remains because the benchmark
// module calls it.
func RegisterServiceWire() {}

// SessionConfig parameterizes the server side of one multiplexed
// session.
type SessionConfig struct {
	// Factor is the parameter scaling factor the server insists on.
	Factor int64
	// MaxWorkers bounds the per-stage threads a client may request.
	MaxWorkers int
	// Window bounds each linear round's queue: the frames waiting for the
	// round's stage, which runs one frame at a time (different requests
	// interleave on one connection pair and overlap across rounds); a full
	// queue stalls the receive loop. <= 0 uses DefaultSessionWindow.
	Window int
	// IdleTTL evicts per-request obfuscation state after this much
	// inactivity, so abandoned requests (client crash, mid-protocol
	// error) stop leaking permutations; <= 0 uses DefaultIdleTTL.
	IdleTTL time.Duration
	// Gate, when non-nil, is the admission control consulted before a
	// request's first round creates any per-request state. Share one Gate
	// across every session of a server so its bounds are global; refused
	// requests get a retryable CodeShed or CodeThrottled error frame.
	Gate *Gate
	// Registry, when non-nil, receives session metrics.
	Registry *obs.Registry
	// Log, when non-nil, receives structured session events — rejected
	// hellos, per-round failures, and rounds of at least SlowRound — each
	// correlated by the request's trace ID.
	Log *obs.Logger
	// SlowRound, when positive, logs every linear round that takes at
	// least this long as a warning tagged "slow":true with its
	// "latency_ms" and the request's trace ID.
	SlowRound time.Duration
	// Traces, when non-nil, offers every completed or failed request's
	// record — server-side trace with cost profiles, session plan, error —
	// to the tail-sampling span store (errors always kept, slowest-K per
	// window, deterministic trace-ID sample of the rest) for /debug/traces
	// and SIGQUIT dumps.
	Traces *obs.TraceStore
	// Flight, when non-nil, is offered every record exactly like Traces.
	// It is kept for the benchmark's traced pass, which sets it with
	// obs.NewFlightRecorder.
	Flight *obs.TraceStore
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

// DefaultSessionWindow is the per-round queue bound a session uses when
// SessionConfig.Window is unset.
const DefaultSessionWindow = 8

// DefaultIdleTTL is the per-request state eviction deadline used when
// SessionConfig.IdleTTL is unset.
const DefaultIdleTTL = 2 * time.Minute

// session is the model-provider side of one negotiated connection: the
// provider serving the client's key, the solved backend plan, and the one
// owner of every request's server-side life. A round-0 frame's request is
// admitted through the gate into the index of live requests that round
// frames are routed by, and leaves it exactly once — in finish, the
// janitor's sweep, or close — and whoever removed it calls end:
//
//	admit → rounds → exactly one end
type session struct {
	ctx  context.Context
	out  stream.Edge
	reg  *obs.Registry
	pk   *paillier.PublicKey
	mp   *ModelProvider
	gate *Gate
	log  *obs.Logger
	// traces and flight are span stores offered every ended request's
	// record alike: flight is the benchmark's (SessionConfig.Flight).
	traces, flight *obs.TraceStore
	slo            *obs.SLOEngine
	// blind is the blinding pool the session built for its provider and
	// closes at its end; nil when the provider brought its own.
	blind *paillier.Pool
	// slowRound is SessionConfig.SlowRound.
	slowRound time.Duration
	// planCodes and profile ride every round-0 reply; plan is the backend
	// assignment as strings, carried on every record so a retained request
	// shows which backend mix produced it.
	planCodes []int32
	profile   string
	plan      []string

	roundsServed, roundErrs            *obs.Counter
	roundTime, kernelTime, permuteTime *obs.Histogram
	// active counts requests between admission and end; outcomes holds one
	// live counter per outcome, and latency is recorded for ok requests
	// only.
	active   atomic.Int64
	outcomes [3]*obs.Counter
	latency  *obs.Histogram

	mu   sync.Mutex
	live map[uint64]*request
}

// request is one inference from its round-0 frame's admission to its end.
type request struct {
	// id keys the model provider's permutation state for the request.
	id uint64
	// traceID correlates the outcome's log line and records; empty derives
	// one from id.
	traceID string
	started time.Time
	// lastSeen and deadline (the absolute point the client's propagated
	// budget runs out; zero means none) are the session janitor's: it
	// evicts on them, under the session lock.
	lastSeen, deadline time.Time
	// spans are the server-side trace segments accumulated so far.
	spans []obs.Segment
}

// outcome is a request's terminal classification.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeErr
	// outcomeShed is a refusal at admission, by the gate: the request
	// never ran and holds no slot.
	outcomeShed
)

func (o outcome) String() string { return [...]string{"ok", "err", "shed"}[o] }

// ServeSession runs one multiplexed model-provider session on mp: round
// frames from different in-flight requests interleave on the connection
// pair and are answered tagged with the request ID they carry in Seq so
// the client can demux. Each linear round is one stage of the paper's
// staged runtime (Section IV): a queue of cfg.Window frames and one
// goroutine that runs them a frame at a time on the round's threads, so
// requests in different rounds overlap. The session serves only the
// client whose Hello carries mp's public key; cfg.Factor must be the
// factor mp was built at. Every request the session admits ends exactly
// once: on its last round, on a failed or panicked round, on its deadline,
// after cfg.IdleTTL of inactivity, or when the session ends.
func ServeSession(ctx context.Context, in, out stream.Edge, mp *ModelProvider, cfg SessionConfig) error {
	return serveSession(ctx, in, out, cfg, func(_ *Hello, pk *paillier.PublicKey) (*ModelProvider, error) {
		if pk.N.Cmp(mp.pk.N) != 0 {
			return nil, errors.New("protocol: hello public key is not the served model provider's key")
		}
		return mp, nil
	})
}

// ServeSessionConfig is ServeSession on a model provider built from net
// for the key the client's Hello announces, with the per-stage threads it
// requests (bounded by cfg.MaxWorkers). A network the protocol cannot
// serve fails the Hello.
func ServeSessionConfig(ctx context.Context, in, out stream.Edge, net *nn.Network, cfg SessionConfig) error {
	_, rounds, err := walk(net, cfg.Factor)
	return serveSession(ctx, in, out, cfg, building(rounds, err, cfg))
}

// Serve is the model provider's server for one network: it walks net once
// at cfg.Factor (Build's merge, quantization and bounds), keeps of it only
// what a model provider needs per round, and serves every connection ln
// accepts as one session whose provider is built from that walk for the
// Hello's key. Each session logs "session opened" and then "session
// closed" or "session failed" to cfg.Log with the remote address, and its
// edge counts bytes and frames as "tcp.*" in cfg.Registry. When ln closes
// or ctx ends, Serve closes the live connections and returns once every
// session has ended: nil, or the error that stopped the accept loop. A
// network the protocol cannot serve is refused before the first accept.
func Serve(ctx context.Context, ln net.Listener, model *nn.Network, cfg SessionConfig) error {
	_, rounds, err := walk(model, cfg.Factor)
	if err != nil {
		return err
	}
	log := cfg.Log
	if log == nil {
		log = quiet
	}
	provide := building(rounds, nil, cfg)
	defer context.AfterFunc(ctx, func() { ln.Close() })()
	var (
		mu       sync.Mutex
		conns    = map[net.Conn]bool{}
		sessions sync.WaitGroup
	)
	for {
		conn, err := ln.Accept()
		if err != nil {
			mu.Lock()
			for c := range conns {
				c.Close()
			}
			mu.Unlock()
			sessions.Wait()
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		mu.Lock()
		conns[conn] = true
		mu.Unlock()
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			scfg := cfg
			scfg.Log = log.With("remote", conn.RemoteAddr().String())
			scfg.Log.Info("session opened")
			edge := stream.NewInstrumentedTCPEdge(conn, cfg.Registry, "tcp")
			if err := serveSession(ctx, edge, edge, scfg, provide); err != nil {
				scfg.Log.Warn("session failed", "err", err.Error())
			} else {
				scfg.Log.Info("session closed")
			}
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
			conn.Close()
		}()
	}
}

// building is the provider that builds one from the walked rounds for each
// client's key; walkErr, when not nil, is why the network was not walked,
// and fails every Hello.
func building(rounds []linearStage, walkErr error, cfg SessionConfig) provider {
	return func(hello *Hello, pk *paillier.PublicKey) (*ModelProvider, error) {
		workers := max(hello.Workers, 1)
		if cfg.MaxWorkers > 0 {
			workers = min(workers, cfg.MaxWorkers)
		}
		err := walkErr
		var mp *ModelProvider
		if err == nil {
			mp, err = newModelProvider(rounds, pk, workers)
		}
		if err != nil {
			return nil, fmt.Errorf("protocol: building provider for session: %w", err)
		}
		return mp, nil
	}
}

// provider picks the model provider that serves a client's Hello and key.
type provider func(hello *Hello, pk *paillier.PublicKey) (*ModelProvider, error)

func serveSession(ctx context.Context, in, out stream.Edge, cfg SessionConfig, provide provider) error {
	cfg.Registry.Counter("sessions.total").Inc()
	active := cfg.Registry.Gauge("sessions.active")
	active.Add(1)
	defer active.Add(-1)
	if cfg.Window <= 0 {
		cfg.Window = DefaultSessionWindow
	}
	if cfg.IdleTTL <= 0 {
		cfg.IdleTTL = DefaultIdleTTL
	}
	s, err := openSession(ctx, in, out, cfg, provide)
	if err != nil {
		return err
	}
	return s.serve(in, cfg.Window, cfg.IdleTTL)
}

// serve is the session's receive loop: it routes each round frame to its
// round's stage, whose one goroutine runs the round's frames in arrival
// order and sends each reply. Per-request ordering is preserved by the
// client, which never has more than one outstanding frame per request.
// The janitor runs beside the loop; once both have stopped and the stages
// have drained, close finishes whatever no one else will.
func (s *session) serve(in stream.Edge, window int, ttl time.Duration) error {
	jctx, stopJanitor := context.WithCancel(s.ctx)
	janitorDone := make(chan struct{})
	go func() {
		defer close(janitorDone)
		s.janitor(jctx, ttl)
	}()
	defer func() {
		stopJanitor()
		<-janitorDone
		s.close()
	}()
	rounds := make([]stream.Stage, s.mp.Stages())
	for r := range rounds {
		rounds[r] = stream.Stage{
			Name: "linear-" + strconv.Itoa(r), Fn: s.handle,
			Wait: s.reg.Histogram("round." + strconv.Itoa(r) + ".wait"),
			Busy: s.reg.LiveHistogram("round." + strconv.Itoa(r) + ".linear"),
		}
	}
	stages := stream.StartStages(s.ctx, window, s.out, rounds...)
	var loopErr error
	for loopErr == nil {
		msg, err := in.Recv(s.ctx)
		if err != nil {
			if !errors.Is(err, stream.ErrEdgeClosed) {
				loopErr = err
			}
			break
		}
		frame, ok := msg.Payload.(*roundFrame)
		switch {
		case !ok:
			loopErr = fmt.Errorf("protocol: expected round frame, got %T", msg.Payload)
		case frame.Round < 0 || frame.Round >= len(rounds):
			// No round's stage answers it: a typed error and no payload,
			// whose code tells the client a retry cannot succeed.
			err := fmt.Errorf("%w: round %d outside [0, %d)", ErrBadRound, frame.Round, len(rounds))
			s.reject(msg.Seq, frame, err)
			loopErr = s.out.Send(s.ctx, &stream.Message{Seq: msg.Seq, Err: err})
		default:
			loopErr = stages.Send(s.ctx, frame.Round, msg)
		}
	}
	// The stages drain their queues; then tell the client no more replies
	// are coming so its reader goroutine unblocks.
	if err := stages.Close(); loopErr == nil {
		loopErr = err
	}
	_ = s.out.CloseSend()
	return loopErr
}

// openSession reads the Hello, picks the model provider serving it,
// negotiates the backend plan, and builds the session.
func openSession(ctx context.Context, in, out stream.Edge, cfg SessionConfig, provide provider) (*session, error) {
	if cfg.Log == nil {
		cfg.Log = quiet
	}
	mp, profile, err := readHello(ctx, in, out, cfg, provide)
	if err != nil {
		return nil, err
	}
	plan, err := mp.applyProfile(profile, cfg.ClearBoundary)
	if err != nil {
		return nil, err
	}
	paillierRounds := 0
	for _, kind := range plan.Assignment {
		if kind == backend.PaillierHE {
			paillierRounds++
		}
	}
	cfg.Log.Info("session plan solved",
		"profile", string(profile), "boundary", plan.Boundary,
		"paillier_rounds", paillierRounds, "rounds", mp.Stages())
	reg := cfg.Registry
	// A provider that serves only this session gets a pool sized to the
	// session's plan and window, which the session closes as it ends; a
	// provider that brought its own (the engine's) keeps it.
	var blind *paillier.Pool
	if mp.pool == nil {
		blind = mp.NewBlindPool(cfg.Window, reg)
	}
	s := &session{
		ctx: ctx, out: out, reg: reg, pk: mp.pk, mp: mp, blind: blind,
		gate: cfg.Gate, log: cfg.Log, traces: cfg.Traces, flight: cfg.Flight, slo: cfg.SLO,
		slowRound: cfg.SlowRound,
		planCodes: plan.Codes(), profile: string(profile), plan: mp.labels(),
		roundsServed: reg.Counter("rounds.served"),
		roundErrs:    reg.Counter("rounds.errors"),
		roundTime:    reg.Histogram("round.linear"),
		kernelTime:   reg.Histogram("round.kernel"),
		permuteTime:  reg.Histogram("round.permute"),
		latency:      reg.LiveHistogram("serve.latency"),
		live:         map[uint64]*request{},
	}
	reg.GaugeFunc("requests.active", s.active.Load)
	for o := outcomeOK; o <= outcomeShed; o++ {
		s.outcomes[o] = reg.LiveCounter("serve.requests." + o.String())
	}
	return s, nil
}

// readHello reads the client's Hello and returns the model provider that
// serves it and the profile the session runs under: the stricter of the
// server's policy and the client's request. What the client can fix (a bad
// key or profile, a key no provider serves) is answered with an error
// frame outside any request, which is session-fatal on the client side —
// and so is an opening the edge refused to parse: another wire version (a
// gob peer's first bytes are that too), or a field over its limit.
func readHello(ctx context.Context, in, out stream.Edge, cfg SessionConfig, provide provider) (*ModelProvider, backend.Profile, error) {
	first, err := in.Recv(ctx)
	if err != nil {
		var refused *stream.WireError
		if out != nil && (errors.Is(err, stream.ErrWireVersion) || errors.As(err, &refused)) {
			cfg.Log.Warn("session hello refused", "err", err.Error())
			_ = out.Send(ctx, &stream.Message{Err: err})
		}
		return nil, "", fmt.Errorf("protocol: session hello: %w", err)
	}
	hello, ok := first.Payload.(*Hello)
	if !ok {
		return nil, "", fmt.Errorf("protocol: expected Hello, got %T", first.Payload)
	}
	if hello.Factor != cfg.Factor {
		return nil, "", fmt.Errorf("protocol: client factor %d does not match server's %d", hello.Factor, cfg.Factor)
	}
	pk, err := helloPublicKey(hello)
	var (
		requested backend.Profile
		mp        *ModelProvider
	)
	if err == nil {
		requested, err = backend.ParseProfile(hello.Profile)
	}
	if err == nil {
		mp, err = provide(hello, pk)
	}
	if err != nil {
		cfg.Log.Warn("session hello rejected", "err", err.Error())
		if out != nil {
			_ = out.Send(ctx, &stream.Message{Seq: first.Seq, Err: err})
		}
		return nil, "", err
	}
	policy, err := backend.ParseProfile(string(cfg.Profile))
	if err != nil {
		return nil, "", fmt.Errorf("protocol: session profile policy: %w", err)
	}
	return mp, backend.Stricter(policy, requested), nil
}

// close ends what the session still holds once the janitor and the round
// stages have stopped: requests live at teardown end as ErrSessionDown —
// the gate outlives the connection — and the blinding pool the session
// built stops.
func (s *session) close() {
	s.mu.Lock()
	left := s.live
	s.live = map[uint64]*request{}
	s.mu.Unlock()
	for _, req := range left {
		s.end(req, fmt.Errorf("%w: session ended with request %d mid-protocol", ErrSessionDown, req.id))
	}
	if s.blind != nil {
		s.blind.Close()
	}
}

// janitor evicts requests abandoned mid-protocol — past their propagated
// deadline, or idle longer than ttl — so their state does not accumulate
// for the life of the session.
func (s *session) janitor(ctx context.Context, ttl time.Duration) {
	ticker := time.NewTicker(max(ttl/4, 10*time.Millisecond))
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-ticker.C:
			s.sweep(now, ttl)
		}
	}
}

// sweep ends every live request whose deadline has passed (ErrDeadline,
// "requests.deadline_evicted") or that has been idle longer than ttl
// (ErrEvicted, "requests.evicted").
func (s *session) sweep(now time.Time, ttl time.Duration) {
	var expired, idle []*request
	s.mu.Lock()
	for id, req := range s.live {
		switch {
		case !req.deadline.IsZero() && now.After(req.deadline):
			expired = append(expired, req)
		case now.Sub(req.lastSeen) > ttl:
			idle = append(idle, req)
		default:
			continue
		}
		delete(s.live, id)
	}
	s.mu.Unlock()
	for _, req := range expired {
		s.reg.Counter("requests.deadline_evicted").Inc()
		s.end(req, fmt.Errorf("%w: request %d evicted mid-protocol", ErrDeadline, req.id))
	}
	for _, req := range idle {
		s.reg.Counter("requests.evicted").Inc()
		s.end(req, fmt.Errorf("%w: request %d idle for more than %v", ErrEvicted, req.id, ttl))
	}
}

// admit routes a round frame to its request. A round-0 frame for an
// unknown ID starts one, which the gate may refuse; a later round for an
// unknown ID is stale — the request ended (evicted, failed) or was never
// admitted, its permutation chain is gone, and processing the frame would
// return garbage. Either way the janitor's bookkeeping is refreshed:
// deadline, when non-zero, replaces the request's eviction deadline.
func (s *session) admit(id uint64, frame *roundFrame, arrived, deadline time.Time) (*request, error) {
	// touch refreshes what the janitor evicts on.
	touch := func(req *request) {
		req.lastSeen = time.Now()
		if !deadline.IsZero() {
			req.deadline = deadline
		}
	}
	s.mu.Lock()
	req := s.live[id]
	if req != nil {
		touch(req)
	}
	s.mu.Unlock()
	if req != nil {
		return req, nil
	}
	if frame.Round > 0 {
		s.reg.Counter("requests.stale_rounds").Inc()
		return nil, fmt.Errorf("%w: no state for request %d round %d", ErrEvicted, id, frame.Round)
	}
	req = &request{id: id, traceID: frame.TC.traceID(), started: arrived}
	s.active.Add(1)
	// Outside the lock: a refusal publishes its shed outcome to every sink.
	if err := s.gate.admit(); err != nil {
		s.end(req, err)
		return nil, err
	}
	touch(req)
	s.mu.Lock()
	_, twin := s.live[id]
	if !twin {
		s.live[id] = req
	}
	s.mu.Unlock()
	if twin {
		// A client keeps one frame per request in flight. A second round-0
		// frame racing the first under one ID breaks that, and ends both:
		// this one here, its twin when it next needs the permutation state
		// this end drops.
		err := fmt.Errorf("protocol: request %d opened twice", id)
		s.end(req, err)
		return nil, err
	}
	return req, nil
}

// finish ends req with err unless the janitor or close already did,
// and reports whether this call was the one.
func (s *session) finish(req *request, err error) bool {
	s.mu.Lock()
	mine := s.live[req.id] == req
	if mine {
		delete(s.live, req.id)
	}
	s.mu.Unlock()
	if mine {
		s.end(req, err)
	}
	return mine
}

// end is where every request ends, admitted or refused: it publishes the
// request's one outcome — ok for a nil err, shed for a refusal at
// admission (ErrShed or ErrThrottled), err for everything else — to the
// outcome counter and latency, the gate's latency window, the SLO engine,
// the span stores (one record, tree and plan, each) and the log, then
// releases the request's gate slot and the model provider's permutation
// state. Whoever took the request out of the index (or never put it in)
// calls it, once, outside the session lock.
func (s *session) end(req *request, err error) {
	latency := time.Since(req.started)
	o := outcomeOK
	switch {
	case errors.Is(err, ErrShed), errors.Is(err, ErrThrottled):
		o = outcomeShed
	case err != nil:
		o = outcomeErr
	}
	s.outcomes[o].Inc()
	if o == outcomeOK {
		s.latency.Observe(latency)
		s.gate.observe(latency)
	}
	s.slo.Observe(latency, err != nil)
	if s.traces != nil || s.flight != nil {
		tree := serverTree(req.traceID, req.id, req.spans)
		s.traces.Record(tree, s.plan, err)
		s.flight.Record(tree, s.plan, err)
	}
	if err != nil {
		s.logFor(req.traceID).Warn("request failed", "req", req.id, "outcome", o.String(), "err", err.Error())
	}
	if o != outcomeShed {
		s.gate.release() // a shed request was refused a slot
	}
	s.mp.Forget(req.id)
	s.active.Add(-1)
}

// logFor returns the session's logger scoped to a request's trace ID, when
// it has one.
func (s *session) logFor(traceID string) *obs.Logger {
	if traceID == "" {
		return s.log
	}
	return s.log.With("trace_id", traceID)
}

// quiet admits no level: it stands in for a nil SessionConfig.Log.
var quiet = obs.NewLogger(io.Discard, math.MaxInt)

// serverTree assembles the server-side view of one request: the spans
// accumulated so far under the request's trace ID (or a request-derived ID
// for untraced clients), with Total as the server's summed busy time — the
// server cannot know the client's end-to-end latency.
func serverTree(traceID string, req uint64, spans []obs.Segment) *obs.TraceTree {
	if traceID == "" {
		traceID = "req-" + strconv.FormatUint(req, 10)
	}
	tree := &obs.TraceTree{ID: traceID, Segments: spans}
	tree.Total = tree.Sum()
	return tree
}

// addSpans appends server-side trace segments to req while it is live.
// The client keeps at most one frame of a request in flight, so
// per-request appends never race with themselves.
func (s *session) addSpans(req *request, segs ...obs.Segment) {
	s.mu.Lock()
	if s.live[req.id] == req {
		req.spans = append(req.spans, segs...)
	}
	s.mu.Unlock()
}

// reject counts and logs a round frame the session answers with cause.
func (s *session) reject(seq uint64, frame *roundFrame, cause error) {
	s.roundErrs.Inc()
	s.logFor(frame.TC.traceID()).Warn("round rejected", "req", seq, "round", frame.Round, "err", cause.Error())
}

// handle is a round stage's handler: it answers one round frame — decode,
// route to the request (admitting a new one), run the linear round — with
// its reply. A failure goes back to the client as the frame's error, which
// the stage tags with its round.
func (s *session) handle(_ context.Context, msg *stream.Message) (*stream.Message, error) {
	frame := msg.Payload.(*roundFrame)
	reply, err := s.answer(frame, msg.Enqueued)
	if err != nil {
		s.reject(msg.Seq, frame, err)
		return nil, err
	}
	s.roundsServed.Inc()
	return &stream.Message{Payload: reply}, nil
}

// answer runs handle's steps for a frame that arrived at arrived. Once the
// frame's request exists, answer's exit decides its end, in a deferred call
// so that it also runs when the round panics (the stage contains the panic
// and answers the client): a failed or panicked round ends the request,
// and so does its last round; any other round leaves it live.
func (s *session) answer(frame *roundFrame, arrived time.Time) (reply *roundFrame, err error) {
	start := time.Now()
	env, err := FromWire(frame.Env, s.pk)
	if err != nil {
		return nil, err
	}
	var deadline time.Time
	if frame.DeadlineMS > 0 {
		deadline = arrived.Add(time.Duration(frame.DeadlineMS) * time.Millisecond)
	}
	req, err := s.admit(env.Req, frame, arrived, deadline)
	if err != nil {
		return nil, err
	}
	defer func() {
		switch {
		case err != nil:
			s.finish(req, err)
		case frame.Round == s.mp.Stages()-1 && !s.finish(req, nil):
			// Losing the last round's end to the janitor means the request
			// already ended as evicted.
			reply, err = nil, fmt.Errorf("%w: request %d evicted during its last round", ErrEvicted, req.id)
		}
	}()
	// What the request ends with should the round below panic.
	err = errRoundPanicked
	if !deadline.IsZero() && time.Now().After(deadline) {
		// The budget ran out while the frame sat in the round's queue;
		// processing it would waste crypto work the client will discard.
		s.reg.Counter("requests.deadline_expired").Inc()
		return nil, fmt.Errorf("%w: request %d budget of %dms spent before round %d started",
			ErrDeadline, req.id, frame.DeadlineMS, frame.Round)
	}
	return s.round(req, frame, env, start, start.Sub(arrived))
}

// errRoundPanicked is the outcome of a request whose round handler
// panicked; the client gets the round stage's error naming the panic.
var errRoundPanicked = errors.New("protocol: round handler panicked")

// round runs one admitted frame's linear round and builds its reply.
func (s *session) round(req *request, frame *roundFrame, env *Envelope, start time.Time, queueWait time.Duration) (*roundFrame, error) {
	// One meter per round frame: round index == linear-stage index, so the
	// snapshot IS the per-layer cost profile the trace segment carries.
	// Profiling labels attribute CPU samples the same way.
	var (
		meter  obs.CostMeter
		result *Envelope
		timing LinearTiming
		err    error
	)
	pprof.Do(s.ctx, pprof.Labels(
		"stage", "linear",
		"round", strconv.Itoa(frame.Round),
		"trace", req.traceID,
	), func(context.Context) {
		result, timing, err = s.mp.ProcessLinearMetered(frame.Round, env, &meter)
	})
	elapsed := time.Since(start)
	s.roundTime.Observe(elapsed)
	s.kernelTime.Observe(timing.Kernel)
	s.permuteTime.Observe(timing.Permute)
	if err != nil {
		return nil, err
	}
	if s.slowRound > 0 && elapsed >= s.slowRound {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		s.logFor(req.traceID).Warn("slow linear round", "slow", true, "latency_ms", ms(elapsed),
			"req", req.id, "round", frame.Round,
			"kernel_ms", ms(timing.Kernel), "permute_ms", ms(timing.Permute), "pack_ms", ms(timing.Pack))
	}
	wireEnv, err := ToWire(result)
	if err != nil {
		return nil, err
	}
	// This round's cost profile: the metered crypto ops plus the
	// activation traffic both ways. It rides on the kernel segment (the
	// work it explains) and folds, once, into the process-wide cost
	// counters and the executing backend's (cost.paillier_he.*,
	// cost.ss_gc.*, cost.clear.*).
	kind := s.mp.RoundBackend(frame.Round)
	cost := meter.Snapshot()
	cost.CipherBytesIn = frame.Env.CipherBytes()
	cost.CipherBytesOut = wireEnv.CipherBytes()
	obs.AddCostToRegistry(s.reg, kind.MetricName(), cost)
	// The round's spans go into the request's record and back to the
	// client with the reply, for its trace tree. The kernel span carries
	// the backend that executed it, so the tree shows the plan's per-round
	// assignment.
	spans := []obs.Segment{
		{Party: "server", Name: "queue", Round: frame.Round, Dur: queueWait},
		{Party: "server", Name: "kernel", Round: frame.Round, Dur: timing.Kernel, Cost: &cost, Backend: string(kind)},
		{Party: "server", Name: "permute", Round: frame.Round, Dur: timing.Permute},
		{Party: "server", Name: "pack", Round: frame.Round, Dur: timing.Pack},
	}
	s.addSpans(req, spans...)
	reply := &roundFrame{Round: frame.Round, Env: wireEnv, TC: frame.TC, Spans: spans}
	if frame.Round == 0 {
		// The solved plan rides every round-0 reply (requests share the
		// session plan, so repeats are idempotent on the client).
		reply.Plan, reply.Profile = s.planCodes, s.profile
	}
	return reply, nil
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
	// (empty = privacy-max, the paper's all-Paillier protocol). The
	// session runs the stricter of this and the server's policy; the
	// client validates the server's solved plan against that before
	// honoring it.
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
}

// NewClientOpts builds the data-provider role from arch, sk and factor and
// starts a client on it (NewClient). The architecture network may be a
// skeleton; its linear weights are not read.
func NewClientOpts(ctx context.Context, in, out stream.Edge, arch *nn.Network, sk *paillier.PrivateKey, factor int64, opts ClientOptions) (*Client, error) {
	dp, err := BuildDataProvider(arch, sk, Config{Factor: factor, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	return NewClient(ctx, in, out, dp, opts)
}

// NewClient sends the Hello for dp's key and factor and returns a client
// that drives dp, ready to Infer. ctx bounds the session's reader
// goroutine as well as the Hello send.
func NewClient(ctx context.Context, in, out stream.Edge, dp *DataProvider, opts ClientOptions) (*Client, error) {
	window := opts.Window
	if window <= 0 {
		window = DefaultClientWindow
	}
	profile, err := backend.ParseProfile(string(opts.Profile))
	if err != nil {
		return nil, err
	}
	hello := &Hello{N: dp.sk.N.Bytes(), Factor: dp.factor, Workers: opts.Workers, Profile: string(profile)}
	if err := out.Send(ctx, &stream.Message{Payload: hello}); err != nil {
		return nil, err
	}
	c := &Client{
		dp: dp, pk: &dp.sk.PublicKey, in: in, out: out, rounds: len(dp.stages),
		window:   make(chan struct{}, window),
		pending:  map[uint64]chan *stream.Message{},
		deadline: opts.Deadline,
		retry:    opts.Retry.withDefaults(),
		profile:  profile,

		retryAttempts: opts.Registry.Counter("retry.attempts"),
		retryGiveups:  opts.Registry.Counter("retry.giveups"),
	}
	go c.readLoop(ctx)
	return c, nil
}

// readLoop demuxes server replies to the Infer call that owns the
// request ID in Seq. It never waits on a request: a request has one frame
// in flight and takes one reply to it, so a reply that finds the
// request's channel full is a duplicate and is dropped. An error frame
// outside any live request (e.g. a Hello rejection) and any transport
// error are session-fatal: every in-flight and future Infer fails with
// the recorded cause.
func (c *Client) readLoop(ctx context.Context) {
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
			if msg.Err != nil {
				c.fatal(fmt.Errorf("protocol: server rejected session: %w", msg.Err))
				return
			}
			continue // stray reply for an abandoned request
		}
		select {
		case ch <- msg:
		default:
		}
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

// InferTraced is Infer returning the request's merged cross-party trace,
// built as the rounds run: the client's own spans (window queueing, input
// encryption, per-round non-linear evaluation), the server's spans of each
// round shipped back in that round's reply, and per-round "wire" segments
// inferred as the client round-trip minus the server's busy time —
// durations only, so no clock synchronization between the parties is
// needed. Round -1 marks request-scoped client segments. The tree is nil
// when the inference fails.
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
	tree := &obs.TraceTree{ID: obs.NewTraceID()}
	tree.Segments = append(tree.Segments, obs.Segment{Party: "client", Name: "queue", Round: -1, Dur: time.Since(begin)})

	req := c.nextID.Add(1)
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

	start := time.Now()
	var meter obs.CostMeter
	env, err := c.dp.EncryptMetered(req, x, &meter)
	if err != nil {
		return nil, nil, err
	}
	tree.Segments = append(tree.Segments, obs.Segment{Party: "client", Name: "encrypt", Round: -1, Dur: time.Since(start), Cost: costOrNil(meter.Snapshot())})
	for round := 0; round < c.rounds; round++ {
		if env, err = c.round(ctx, ch, round, env, deadline, tree); err != nil {
			return nil, nil, err
		}
	}
	if env.Result == nil {
		return nil, nil, errors.New("protocol: session ended without a result")
	}
	tree.Total = time.Since(begin)
	return env.Result, tree, nil
}

// round runs one round of request env.Req — the exchange with the server
// under the request's trace ID, tree.ID, then the round's non-linear
// stage — and appends the round's wire, server and non-linear segments to
// tree. Cost profiles ride on the segments they
// explain: ciphertext traffic on wire, the kernel's ops on the server's
// kernel segment, decryption and re-encryption ops on client-nonlinear.
func (c *Client) round(ctx context.Context, ch <-chan *stream.Message, round int, env *Envelope, deadline time.Time, tree *obs.TraceTree) (*Envelope, error) {
	req, start := env.Req, time.Now()
	w, err := ToWire(env)
	if err != nil {
		return nil, err
	}
	tc := &TraceContext{Ver: TraceV1, ID: tree.ID}
	frame, err := c.exchange(ctx, ch, req, &roundFrame{Round: round, Env: w, TC: tc}, deadline)
	if err != nil {
		return nil, err
	}
	if round == 0 {
		// The server's solved backend plan rides the round-0 reply;
		// validate it against the requested profile's safety rules
		// before the session honors it.
		if err := c.applyPlan(frame); err != nil {
			return nil, err
		}
	}
	traffic := obs.CostStats{CipherBytesOut: w.CipherBytes(), CipherBytesIn: frame.Env.CipherBytes()}
	if env, err = FromWire(frame.Env, c.pk); err != nil {
		return nil, err
	}
	// The wire's share of the round trip is what the server's busy time
	// leaves, clamped at zero if the server over-reports.
	wire := time.Since(start)
	for _, s := range frame.Spans {
		wire -= s.Dur
	}
	tree.Segments = append(tree.Segments, obs.Segment{Party: "wire", Name: "wire", Round: round, Dur: max(wire, 0), Cost: costOrNil(traffic)})
	tree.Segments = append(tree.Segments, frame.Spans...)

	env.Req = req
	start = time.Now()
	var meter obs.CostMeter
	if env, err = c.dp.ProcessNonLinearMetered(round, env, &meter); err != nil {
		return nil, err
	}
	// The segment carries the backend whose round output it decoded
	// (decrypt / gc-relu+open / plain).
	tree.Segments = append(tree.Segments, obs.Segment{
		Party: "client", Name: "nonlinear", Round: round, Dur: time.Since(start),
		Cost: costOrNil(meter.Snapshot()), Backend: string(c.dp.RoundBackend(round)),
	})
	return env, nil
}

// costOrNil is st as a segment's cost profile: nil when nothing was
// counted.
func costOrNil(st obs.CostStats) *obs.CostStats {
	if st.IsZero() {
		return nil
	}
	return &st
}

// exchange sends one round frame for req, stamped with what is left of
// deadline, and waits on ch for the server's reply frame. Only a
// first-round throttle/shed rejection is retried in session: the server
// rejected it before creating any per-request state, so resending the
// identical frame starts clean. Later rounds are non-idempotent — the
// server's permutation state advances each round — and fail through. A
// reply to another round than frame's (a duplicate of an earlier one)
// fails the request with ErrBadRound.
func (c *Client) exchange(ctx context.Context, ch <-chan *stream.Message, req uint64, frame *roundFrame, deadline time.Time) (*roundFrame, error) {
	for attempt := 1; ; attempt++ {
		if !deadline.IsZero() {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				return nil, fmt.Errorf("%w: budget spent before round %d", ErrDeadline, frame.Round)
			}
			frame.DeadlineMS = max(remaining.Milliseconds(), 1)
		}
		if err := c.out.Send(ctx, &stream.Message{Seq: req, Payload: frame}); err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			return nil, fmt.Errorf("%w: %w", ErrSessionDown, err)
		}
		var msg *stream.Message
		select {
		case m, ok := <-ch:
			if !ok {
				return nil, c.sessionErr()
			}
			msg = m
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if msg.Err == nil {
			reply, ok := msg.Payload.(*roundFrame)
			if !ok {
				return nil, fmt.Errorf("protocol: expected round frame, got %T", msg.Payload)
			}
			if reply.Round != frame.Round {
				return nil, fmt.Errorf("%w: request %d round %d got a reply to round %d", ErrBadRound, req, frame.Round, reply.Round)
			}
			return reply, nil
		}
		rerr := &RoundError{Round: frame.Round, Err: msg.Err}
		if frame.Round != 0 || !Retryable(rerr) {
			return nil, rerr
		}
		if attempt >= c.retry.MaxAttempts {
			c.retryGiveups.Inc()
			return nil, fmt.Errorf("protocol: retries exhausted: %w", rerr)
		}
		c.retryAttempts.Inc()
		if err := retrySleep(ctx, c.retry.backoff(attempt)); err != nil {
			return nil, err
		}
	}
}

// applyPlan installs the server's solved backend plan from a round-0
// reply, once per session. A reply without a plan leaves the all-Paillier
// plan the data provider was built with. The plan is validated under the
// stricter of the client's requested profile and the server's announced
// one, so a privacy-max client rejects any plan that takes a round off
// Paillier.
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

// Close ends the session.
func (c *Client) Close() error { return c.out.CloseSend() }
