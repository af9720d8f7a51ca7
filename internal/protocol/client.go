package protocol

import (
	"context"
	"errors"
	"fmt"
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

// This file is the data provider's side of the network session (serve.go).

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
