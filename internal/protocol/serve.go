package protocol

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"net"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"ppstream/internal/backend"
	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/stream"
)

// This file is the model provider's side of the network session: a data
// provider (client.go) sends a Hello carrying its public key and the agreed
// scaling factor, the server answers it once, and the data provider then
// drives the Figure 3 workflow round by round over the same connection
// pair.

// Hello is the data provider's session-setup frame, and the server's answer
// to one it accepts, which carries only Profile and Plan.
type Hello struct {
	// N is the big-endian Paillier modulus (the public key).
	N []byte
	// Factor is the agreed parameter scaling factor.
	Factor int64
	// Workers requests a per-stage thread count on the server (bounded
	// by the server's own cap, SessionConfig.MaxWorkers).
	Workers int
	// Profile is the deployment profile the client requests (empty
	// selects privacy-max, the all-Paillier protocol). The server takes
	// the stricter of this and its own policy. In the answer it is the
	// profile the session runs under.
	Profile string
	// Plan, in the answer, is the session's solved per-round backend
	// assignment (backend.Kind wire codes).
	Plan []int32
	// Exps is each round's reply exponent as the client's schedule fixes it,
	// the power of F it descales the reply by, and InputMax the input domain
	// it declares (nn.Network.InputMax, 0 when undeclared), on the wire as
	// its float64 bits. The server refuses a Hello whose exponents or domain
	// are not its own network's: its reply slots hold only the values of
	// inputs inside its own domain.
	Exps     []int32
	InputMax float64
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
// loop. Trace is the request's trace ID (empty: untraced), under which both
// parties record their spans; on a reply, Spans carries the server's spans
// of that round back to the client.
type roundFrame struct {
	Round int
	Env   *WireEnvelope
	Trace string
	Spans []obs.Segment
	// DeadlineMS is the client's remaining per-request budget in
	// milliseconds at send time — relative, so no cross-party clock sync
	// is needed. Zero means no deadline. The server refreshes its absolute
	// deadline from this on every frame and evicts expired requests.
	DeadlineMS int64
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
	// MaxWorkers bounds the per-stage threads a client may request; <= 0
	// bounds them by runtime.GOMAXPROCS.
	MaxWorkers int
	// Window bounds each linear round's queue: the frames waiting for the
	// round's goroutine, which runs one frame at a time (different requests
	// interleave on one connection pair and overlap across rounds); a full
	// queue stalls the receive loop. <= 0 uses DefaultSessionWindow.
	Window int
	// IdleTTL ends a request idle between its rounds for this long, so an
	// abandoned one stops holding its permutations; <= 0 uses
	// DefaultIdleTTL.
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
	// Traces, when non-nil, is offered every ended request's record —
	// server-side trace with cost profiles, session plan, error — for
	// /debug/traces and SIGQUIT dumps. Flight is offered the same records;
	// the benchmark's traced pass sets it with obs.NewFlightRecorder.
	Traces, Flight *obs.TraceStore
	// SLO, when non-nil, observes every ended request's server-observed
	// latency (first-round arrival to end) and whether it failed. Share one
	// engine across sessions so objectives are server-global.
	SLO *obs.SLOEngine
	// Profile is the server's deployment-profile policy. The session runs
	// under the stricter of this and the client's requested profile, so
	// the default (empty = privacy-max) preserves the paper's original
	// all-Paillier protocol unless the operator explicitly relaxes it.
	Profile backend.Profile
	// ClearBoundary is the first linear round allowed to execute in
	// plaintext, as the operator sets it: nothing here certifies it
	// (internal/leakage.CertifyClearBoundary runs offline). <= 0 means no
	// round runs in the clear, so the clear backend is never assigned.
	ClearBoundary int
}

// DefaultSessionWindow is the per-round queue bound a session uses when
// SessionConfig.Window is unset.
const DefaultSessionWindow = 8

// DefaultIdleTTL is the per-request state eviction deadline used when
// SessionConfig.IdleTTL is unset.
const DefaultIdleTTL = 2 * time.Minute

// session is the model-provider side of one negotiated connection and the
// shell of its request table (session.go) and of every goroutine that
// serves it: the receive loop, each round's goroutine, the janitor and
// teardown step the table under mu, carry the step out outside it, and end
// every request the table lets go of, exactly once.
type session struct {
	ctx context.Context
	cfg SessionConfig // defaults applied, Log set
	out stream.Edge
	reg *obs.Registry
	mp  *ModelProvider
	// blind is the blinding pool the session built for its provider and
	// closes at its end; nil when the provider brought its own.
	blind *paillier.Pool
	// plan is the backend assignment as strings, carried on every record
	// so a retained request shows which backend mix produced it.
	plan []string
	m    sessionMetrics

	mu    sync.Mutex
	table table
}

// sessionMetrics are the session's metric handles, resolved once at its
// start (openSession), so a request or a round looks no name up.
type sessionMetrics struct {
	ok, err, shed           *obs.Counter   // serve.requests.<outcome>, live
	latency                 *obs.Histogram // serve.latency, live
	active                  *obs.Gauge     // requests.active
	served, errors          *obs.Counter   // rounds.{served,errors}
	linear, kernel, permute *obs.Histogram // round.{linear,kernel,permute}
	// wait and busy are each round's queue wait and time, round.<r>.wait
	// and round.<r>.linear, live.
	wait, busy []*obs.Histogram
	// cost folds a round's cost profile under the round's backend.
	cost []func(obs.CostStats)
}

// ServeSession runs one multiplexed model-provider session on mp: round
// frames from different in-flight requests interleave on the connection
// pair and are answered tagged with the request ID they carry in Seq so
// the client can demux. Each linear round is one stage of the paper's
// staged runtime (Section IV): a queue of cfg.Window frames and one
// goroutine that runs them a frame at a time on the round's threads, so
// requests in different rounds overlap. The session serves only the
// client whose Hello carries mp's public key, on a copy of mp with its own
// plan and permutations (ModelProvider.forSession); cfg.Factor must be the
// factor mp was built at. Every request the session admits ends exactly
// once: on its last round, a failed or panicked round, an out-of-order
// frame, its deadline, cfg.IdleTTL between rounds, or the session's end.
func ServeSession(ctx context.Context, in, out stream.Edge, mp *ModelProvider, cfg SessionConfig) error {
	return serveSession(ctx, in, out, cfg, func(_ *Hello, pk *paillier.PublicKey) (*ModelProvider, error) {
		if pk.N.Cmp(mp.pk.N) != 0 {
			return nil, errors.New("protocol: hello public key is not the served model provider's key")
		}
		return mp.forSession(), nil
	})
}

// ServeSessionConfig is ServeSession on a model provider built from net
// for the key the client's Hello announces, with the per-stage threads it
// requests (bounded by cfg.MaxWorkers). A network the protocol cannot
// serve fails the Hello.
func ServeSessionConfig(ctx context.Context, in, out stream.Edge, net *nn.Network, cfg SessionConfig) error {
	_, sched, stages, err := walk(net, cfg.Factor)
	return serveSession(ctx, in, out, cfg, building(sched, stages, err, cfg))
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
	_, sched, stages, err := walk(model, cfg.Factor)
	if err != nil {
		return err
	}
	log := cfg.Log
	if log == nil {
		log = quiet
	}
	provide := building(sched, stages, nil, cfg)
	defer context.AfterFunc(ctx, func() { ln.Close() })()
	// down ends with ctx or the accept loop and closes the live connections.
	down, stop := context.WithCancel(ctx)
	var sessions sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			stop()
			sessions.Wait()
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			defer context.AfterFunc(down, func() { conn.Close() })()
			scfg := cfg
			scfg.Log = log.With("remote", conn.RemoteAddr().String())
			scfg.Log.Info("session opened")
			edge := stream.NewInstrumentedTCPEdge(conn, cfg.Registry, "tcp")
			if err := serveSession(ctx, edge, edge, scfg, provide); err != nil {
				scfg.Log.Warn("session failed", "err", err.Error())
			} else {
				scfg.Log.Info("session closed")
			}
			conn.Close()
		}()
	}
}

// building is the provider that builds one from a walk for each client's
// key, on the threads the Hello asks for up to cfg.MaxWorkers (or
// GOMAXPROCS); walkErr, when not nil, is why the network was not walked,
// and fails every Hello. A key too small for a round's reply slots fails
// the Hello with the *SlotError.
func building(sched roundSchedule, stages []linearStage, walkErr error, cfg SessionConfig) provider {
	limit := cfg.MaxWorkers
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	return func(hello *Hello, pk *paillier.PublicKey) (*ModelProvider, error) {
		workers := min(max(hello.Workers, 1), limit)
		err := walkErr
		var mp *ModelProvider
		if err == nil {
			mp, err = newModelProvider(sched, stages, pk, workers)
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
	s, err := openSession(ctx, in, out, cfg, provide)
	if err != nil {
		return err
	}
	return s.serve(in)
}

// queued is a round frame in its round's queue: the request it belongs
// to and when the receive loop took it off the edge.
type queued struct {
	id      uint64
	frame   *roundFrame
	arrived time.Time
}

// serve is the session's receive loop: it queues each round frame for its
// round's goroutine, which runs the round's frames one at a time in
// arrival order and sends each reply. A full queue stalls the loop. The
// janitor ticks the request table beside the loop; once both have stopped
// and the rounds have drained their queues, the table is closed.
func (s *session) serve(in stream.Edge) error {
	jctx, stopJanitor := context.WithCancel(s.ctx)
	janitorDone := make(chan struct{})
	go func() {
		defer close(janitorDone)
		s.janitor(jctx)
	}()
	defer func() {
		stopJanitor()
		<-janitorDone
		s.step((*table).close)
		if s.blind != nil {
			s.blind.Close()
		}
	}()
	// A reply a round fails to send cancels ctx with that error, which
	// releases the loop wherever it waits.
	ctx, fail := context.WithCancelCause(s.ctx)
	defer fail(nil)
	// Each queue holds cfg.Window frames (SessionConfig.Window).
	queues := make([]chan queued, s.mp.Stages())
	var rounds sync.WaitGroup
	for r := range queues {
		queues[r] = make(chan queued, s.cfg.Window)
		rounds.Add(1)
		go func() {
			defer rounds.Done()
			s.runRound(ctx, fail, queues[r])
		}()
	}
	var loopErr error
	for loopErr == nil {
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
		now := time.Now()
		if st := s.arrive(now, msg.Seq, frame); st.err != nil {
			// No round answers it: a typed error and no payload.
			s.reject(msg.Seq, frame, st.err)
			loopErr = s.out.Send(ctx, &stream.Message{Seq: msg.Seq, Err: st.err})
		} else {
			select {
			case queues[frame.Round] <- queued{id: msg.Seq, frame: frame, arrived: now}:
			case <-ctx.Done():
				loopErr = ctx.Err()
			}
		}
	}
	// The rounds drain their queues; then tell the client no more replies
	// are coming so its reader goroutine unblocks.
	for _, q := range queues {
		close(q)
	}
	rounds.Wait()
	// Where the loop saw ctx end, report why it ended: a reply a round
	// could not send, or the session's own ctx.
	if loopErr == nil || errors.Is(loopErr, ctx.Err()) {
		loopErr = context.Cause(ctx)
	}
	_ = s.out.CloseSend()
	return loopErr
}

// runRound is a round's goroutine: it runs the frames of queue one at a
// time until the queue closes or ctx ends, and sends each reply — a failed
// round's as its error alone, like a rejected frame's: the client knows
// from Seq which request, and so which round, it answers. A reply it
// cannot send stops it and fails the session's ctx with that error.
func (s *session) runRound(ctx context.Context, fail context.CancelCauseFunc, queue <-chan queued) {
	for q := range queue {
		if ctx.Err() != nil {
			return
		}
		reply := &stream.Message{Seq: q.id}
		if out, err := s.handle(q); err != nil {
			reply.Err = err
		} else {
			reply.Payload = out
		}
		if err := s.out.Send(ctx, reply); err != nil {
			fail(err)
			return
		}
	}
}

// arrive feeds a round frame that arrived at now to the request table,
// putting a new request through the gate, and returns the step. The
// receive loop is its one caller, so no frame comes between a new
// request's gate check and its admission.
func (s *session) arrive(now time.Time, id uint64, frame *roundFrame) step {
	st := s.step(func(t *table) step { return t.arrive(now, id, frame) })
	if !st.admit {
		return st
	}
	refused := s.cfg.Gate.admit()
	if refused == nil {
		s.m.active.Add(1)
	}
	return s.step(func(t *table) step { return t.admit(now, id, frame, refused) })
}

// step runs one transition of the request table under the session lock,
// then, outside it, counts the causes the transition decided and ends the
// requests it let go of; it returns the step for the caller to finish.
func (s *session) step(transition func(*table) step) step {
	st := locked(&s.mu, func() step { return transition(&s.table) })
	for _, name := range st.count {
		s.reg.Counter(name).Inc()
	}
	for _, req := range st.end {
		s.end(req)
	}
	return st
}

// openSession reads the client's Hello and answers it exactly once: with a
// Hello carrying the profile the session runs under and its solved plan, or
// with an error frame naming why the Hello was refused — an opening the
// edge refused to parse (another wire version, as a gob peer's first bytes
// are too, or a field over its limit) included. It returns the accepted
// session, or the refusal. An edge that fails before a frame arrives gets
// no answer.
func openSession(ctx context.Context, in, out stream.Edge, cfg SessionConfig, provide provider) (*session, error) {
	if cfg.Log == nil {
		cfg.Log = quiet
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultSessionWindow
	}
	if cfg.IdleTTL <= 0 {
		cfg.IdleTTL = DefaultIdleTTL
	}
	first, err := in.Recv(ctx)
	var malformed *stream.WireError
	if err != nil && !errors.Is(err, stream.ErrWireVersion) && !errors.As(err, &malformed) {
		return nil, fmt.Errorf("protocol: session hello: %w", err)
	}
	var (
		mp   *ModelProvider
		plan *backend.Plan
	)
	if err == nil {
		mp, plan, err = acceptHello(first, cfg, provide)
	} else {
		err = fmt.Errorf("protocol: session hello: %w", err)
	}
	if err != nil {
		cfg.Log.Warn("session hello refused", "err", err.Error())
		_ = out.Send(ctx, &stream.Message{Err: err})
		return nil, err
	}
	paillierRounds := 0
	for _, kind := range plan.Assignment {
		if kind == backend.PaillierHE {
			paillierRounds++
		}
	}
	cfg.Log.Info("session plan solved",
		"profile", string(plan.Profile), "boundary", plan.Boundary,
		"paillier_rounds", paillierRounds, "rounds", mp.Stages())
	if err := out.Send(ctx, &stream.Message{Payload: &Hello{Profile: string(plan.Profile), Plan: plan.Codes()}}); err != nil {
		return nil, fmt.Errorf("protocol: answering the hello: %w", err)
	}
	reg := cfg.Registry
	// A provider without a blinding pool gets one sized to the session's
	// plan and window, which the session closes as it ends; the copy of a
	// provider that brought its own (the engine's) draws from that.
	var blind *paillier.Pool
	if mp.pool == nil {
		blind = mp.NewBlindPool(cfg.Window, reg)
	}
	s := &session{
		ctx: ctx, cfg: cfg, out: out, reg: reg, mp: mp, blind: blind, plan: mp.labels(),
		table: newTable(mp.Stages(), cfg.IdleTTL),
		m: sessionMetrics{
			ok:      reg.LiveCounter("serve.requests.ok"),
			err:     reg.LiveCounter("serve.requests.err"),
			shed:    reg.LiveCounter("serve.requests.shed"),
			latency: reg.LiveHistogram("serve.latency"),
			active:  reg.Gauge("requests.active"),
			served:  reg.Counter("rounds.served"),
			errors:  reg.Counter("rounds.errors"),
			linear:  reg.Histogram("round.linear"),
			kernel:  reg.Histogram("round.kernel"),
			permute: reg.Histogram("round.permute"),
			cost:    make([]func(obs.CostStats), mp.Stages()),
			wait:    make([]*obs.Histogram, mp.Stages()),
			busy:    make([]*obs.Histogram, mp.Stages()),
		},
	}
	for r := range s.m.cost {
		s.m.cost[r] = obs.AddCostToRegistry(reg, mp.RoundBackend(r).MetricName())
		s.m.wait[r] = reg.Histogram("round." + strconv.Itoa(r) + ".wait")
		s.m.busy[r] = reg.LiveHistogram("round." + strconv.Itoa(r) + ".linear")
	}
	return s, nil
}

// acceptHello checks the client's opening frame and returns the model
// provider that serves it and the plan solved, and installed on it, for
// the profile the session runs under: the stricter of the server's policy
// and the client's request.
func acceptHello(first *stream.Message, cfg SessionConfig, provide provider) (*ModelProvider, *backend.Plan, error) {
	hello, ok := first.Payload.(*Hello)
	if !ok {
		return nil, nil, fmt.Errorf("protocol: expected Hello, got %T", first.Payload)
	}
	if hello.Factor != cfg.Factor {
		return nil, nil, fmt.Errorf("protocol: client factor %d does not match server's %d", hello.Factor, cfg.Factor)
	}
	pk, err := helloPublicKey(hello)
	if err != nil {
		return nil, nil, err
	}
	requested, err := backend.ParseProfile(hello.Profile)
	if err != nil {
		return nil, nil, err
	}
	policy, err := backend.ParseProfile(string(cfg.Profile))
	if err != nil {
		return nil, nil, fmt.Errorf("protocol: session profile policy: %w", err)
	}
	mp, err := provide(hello, pk)
	if err != nil {
		return nil, nil, err
	}
	if exps := mp.exps(); !slices.Equal(hello.Exps, exps) {
		return nil, nil, fmt.Errorf("protocol: client reply exponents %v do not match the served network's %v", hello.Exps, exps)
	}
	if math.Float64bits(hello.InputMax) != math.Float64bits(mp.inputMax) {
		return nil, nil, fmt.Errorf("protocol: client input domain %v does not match the served network's %v", hello.InputMax, mp.inputMax)
	}
	plan, err := mp.applyProfile(backend.Stricter(policy, requested), cfg.ClearBoundary)
	return mp, plan, err
}

// janitor ticks the request table every quarter of the idle TTL (at least
// every 10 ms), so requests abandoned mid-protocol or past their propagated
// deadline do not hold their state for the life of the session.
func (s *session) janitor(ctx context.Context) {
	ticker := time.NewTicker(max(s.cfg.IdleTTL/4, 10*time.Millisecond))
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-ticker.C:
			s.step(func(t *table) step { return t.tick(now) })
		}
	}
}

// end is where every request ends, admitted or refused: it publishes the
// request's one outcome — ok for a nil cause, shed for a refusal at
// admission by the gate (ErrShed or ErrThrottled), which never ran and holds
// no slot, err for everything else — to the
// outcome counter and latency, the gate's latency window, the SLO engine,
// the span stores (one record, tree and plan, each) and the log, then
// releases the request's gate slot and the model provider's permutation
// state. The session calls it once for every request the table lets go
// of, outside the session lock.
func (s *session) end(req *request) {
	latency, err := time.Since(req.started), req.cause
	o, outcome := "ok", s.m.ok
	switch {
	case errors.Is(err, ErrShed), errors.Is(err, ErrThrottled):
		o, outcome = "shed", s.m.shed
	case err != nil:
		o, outcome = "err", s.m.err
	}
	outcome.Inc()
	if o == "ok" {
		s.m.latency.Observe(latency)
		s.cfg.Gate.observe(latency)
	}
	s.cfg.SLO.Observe(latency, err != nil)
	if s.cfg.Traces != nil || s.cfg.Flight != nil {
		// The server's view of the request: its spans under its trace ID
		// (or one derived from its ID), Total their summed busy time — the
		// server cannot know the client's end-to-end latency.
		tree := &obs.TraceTree{ID: req.traceID, Segments: req.spans}
		if tree.ID == "" {
			tree.ID = "req-" + strconv.FormatUint(req.id, 10)
		}
		tree.Total = tree.Sum()
		s.cfg.Traces.Record(tree, s.plan, err)
		s.cfg.Flight.Record(tree, s.plan, err)
	}
	if err != nil {
		s.logFor(req.traceID).Warn("request failed", "req", req.id, "outcome", o, "err", err.Error())
	}
	if o != "shed" {
		s.cfg.Gate.release()
		s.m.active.Add(-1)
	}
	s.mp.Forget(req.id)
}

// logFor returns the session's logger scoped to a request's trace ID, when
// it has one.
func (s *session) logFor(traceID string) *obs.Logger {
	if traceID == "" {
		return s.cfg.Log
	}
	return s.cfg.Log.With("trace_id", traceID)
}

// quiet admits no level: it stands in for a nil SessionConfig.Log.
var quiet = obs.NewLogger(io.Discard, math.MaxInt)

// reject counts and logs a round frame the session answers with cause.
func (s *session) reject(seq uint64, frame *roundFrame, cause error) {
	s.m.errors.Inc()
	s.logFor(frame.Trace).Warn("round rejected", "req", seq, "round", frame.Round, "err", cause.Error())
}

// handle runs a queued frame's round: it starts the round in the request
// table, runs it, and reports its return, a panic included, to the table,
// which may end the request and replace the reply with its cause.
func (s *session) handle(q queued) (out *roundFrame, err error) {
	id, start := q.id, time.Now()
	s.m.wait[q.frame.Round].Observe(start.Sub(q.arrived))
	if st := s.step(func(t *table) step { return t.start(start, id) }); st.err != nil {
		s.reject(id, q.frame, st.err)
		return nil, st.err
	}
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("handler panic: %v", p)
		}
		var spans []obs.Segment
		if err == nil {
			spans = out.Spans
		}
		if st := s.step(func(t *table) step { return t.done(time.Now(), id, spans, err) }); st.err != nil {
			out, err = nil, st.err
		}
		if err != nil {
			s.reject(id, q.frame, err)
			return
		}
		s.m.served.Inc()
	}()
	return s.round(q, start)
}

// round decodes a queued frame, runs its linear round and builds the
// reply. Its clock pair — the frame's arrival and start, and the round's
// end — gives the frame's queue wait and the round's time.
func (s *session) round(q queued, start time.Time) (*roundFrame, error) {
	frame, id := q.frame, q.id
	env, err := FromWire(frame.Env, s.mp.pk)
	if err != nil {
		return nil, err
	}
	env.Req = id
	traceID := frame.Trace
	// One meter per round frame: round index == linear-stage index, so the
	// snapshot IS the per-layer cost profile the trace segment carries.
	// Profiling labels attribute CPU samples the same way.
	var (
		meter  obs.CostMeter
		result *Envelope
		timing LinearTiming
	)
	pprof.Do(s.ctx, pprof.Labels(
		"stage", "linear",
		"round", strconv.Itoa(frame.Round),
		"trace", traceID,
	), func(context.Context) {
		result, timing, err = s.mp.ProcessLinearMetered(frame.Round, env, &meter)
	})
	var wireEnv *WireEnvelope
	if err == nil {
		wireEnv, err = ToWire(result)
	}
	elapsed := time.Since(start)
	if err != nil {
		s.fold(frame.Round, elapsed, timing, obs.CostStats{})
		return nil, err
	}
	if s.cfg.SlowRound > 0 && elapsed >= s.cfg.SlowRound {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		s.logFor(traceID).Warn("slow linear round", "slow", true, "latency_ms", ms(elapsed),
			"req", id, "round", frame.Round,
			"kernel_ms", ms(timing.Kernel), "permute_ms", ms(timing.Permute), "pack_ms", ms(timing.Pack))
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
	s.fold(frame.Round, elapsed, timing, cost)
	// The round's spans go into the request's record, through the table,
	// and back to the client with the reply, for its trace tree. The kernel
	// span carries the backend that executed it, so the tree shows the
	// plan's per-round assignment.
	spans := []obs.Segment{
		{Party: "server", Name: "queue", Round: frame.Round, Dur: start.Sub(q.arrived)},
		{Party: "server", Name: "kernel", Round: frame.Round, Dur: timing.Kernel, Cost: &cost, Backend: string(kind)},
		{Party: "server", Name: "permute", Round: frame.Round, Dur: timing.Permute},
		{Party: "server", Name: "pack", Round: frame.Round, Dur: timing.Pack},
	}
	return &roundFrame{Round: frame.Round, Env: wireEnv, Trace: frame.Trace, Spans: spans}, nil
}

// fold publishes one linear round's telemetry through the session's
// handles: its server time (round.linear and round.<r>.linear), kernel and
// permute time, and its cost profile (zero for a failed round) under the
// round's backend.
func (s *session) fold(round int, elapsed time.Duration, timing LinearTiming, cost obs.CostStats) {
	s.m.linear.Observe(elapsed)
	s.m.busy[round].Observe(elapsed)
	s.m.kernel.Observe(timing.Kernel)
	s.m.permute.Observe(timing.Permute)
	s.m.cost[round](cost)
}
