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
	// Deadline bounds each Infer end to end: Infer returns ErrDeadline by
	// it. The remaining budget is propagated to the server in every round
	// frame so it can evict the request (and stop burning crypto cycles)
	// the moment the budget is spent. Zero means no deadline beyond the
	// call's ctx, whose own deadline is propagated the same way.
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
	// session runs the stricter of this and the server's policy; NewClient
	// refuses a plan in the server's answer that this profile forbids.
	Profile backend.Profile
}

// DefaultClientWindow is the in-flight bound a client uses when
// ClientOptions.Window is unset.
const DefaultClientWindow = 8

// Client drives the data-provider side of a remote session. The session
// multiplexes one connection pair: concurrent Infer calls interleave
// their round frames on the wire, tagged by request ID, and a reader
// goroutine demuxes the server's replies — so one connection carries
// Window in-flight inferences at once. It is the shell of its call table.
type Client struct {
	dp       *DataProvider
	in       stream.Edge // frames from the server
	out      stream.Edge // frames to the server
	window   chan struct{}
	nextID   atomic.Uint64
	deadline time.Duration
	retry    RetryPolicy
	reg      *obs.Registry

	mu    sync.Mutex
	table callTable
}

// NewClientOpts builds the data-provider role from arch, sk and factor and
// starts a client on it (NewClient). Only arch's architecture is read,
// never a weight (BuildDataProvider).
func NewClientOpts(ctx context.Context, in, out stream.Edge, arch *nn.Network, sk *paillier.PrivateKey, factor int64, opts ClientOptions) (*Client, error) {
	dp, err := BuildDataProvider(arch, sk, Config{Factor: factor, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	return NewClient(ctx, in, out, dp, opts)
}

// NewClient sends the Hello for dp's key and factor, waits under ctx for
// the server's answer and returns a client that drives dp, ready to Infer;
// ctx also bounds the session's reader goroutine. The answer's plan is
// installed on dp once it passes the stricter of the requested and the
// announced profile, so a privacy-max client refuses any plan that takes a
// round off Paillier. A Hello the server refused and a plan the client
// refused fail with ErrRefused. A client that fails to open ends its side
// of the session.
func NewClient(ctx context.Context, in, out stream.Edge, dp *DataProvider, opts ClientOptions) (_ *Client, err error) {
	defer func() {
		if err != nil {
			_ = out.CloseSend()
		}
	}()
	window := opts.Window
	if window <= 0 {
		window = DefaultClientWindow
	}
	profile, err := backend.ParseProfile(string(opts.Profile))
	if err != nil {
		return nil, err
	}
	hello := &Hello{N: dp.sk.N.Bytes(), Factor: dp.factor, Workers: opts.Workers, Profile: string(profile), Exps: dp.exps(), InputMax: dp.inputMax}
	if err := out.Send(ctx, &stream.Message{Payload: hello}); err != nil {
		return nil, err
	}
	if err := installPlan(ctx, in, dp, profile); err != nil {
		return nil, err
	}
	c := &Client{
		dp: dp, in: in, out: out,
		window:   make(chan struct{}, window),
		deadline: opts.Deadline,
		retry:    opts.Retry.withDefaults(),
		reg:      opts.Registry,
	}
	c.table = callTable{maxAttempts: c.retry.MaxAttempts, live: map[uint64]*call{}}
	go c.readLoop(ctx)
	return c, nil
}

// installPlan reads the server's answer to the Hello and installs the plan
// it carries on dp, checked under the stricter of requested and the
// profile the server announced.
func installPlan(ctx context.Context, in stream.Edge, dp *DataProvider, requested backend.Profile) error {
	msg, err := in.Recv(ctx)
	if err != nil {
		return fmt.Errorf("protocol: awaiting the hello's answer: %w", err)
	}
	if msg.Err != nil {
		return fmt.Errorf("%w: %w", ErrRefused, msg.Err)
	}
	answer, ok := msg.Payload.(*Hello)
	if !ok {
		return fmt.Errorf("protocol: expected the hello's answer, got %T", msg.Payload)
	}
	kinds, err := backend.AssignmentFromCodes(answer.Plan)
	if err != nil {
		return fmt.Errorf("%w: server plan: %w", ErrRefused, err)
	}
	announced, err := backend.ParseProfile(answer.Profile)
	if err != nil {
		return fmt.Errorf("%w: server plan: %w", ErrRefused, err)
	}
	if err := backend.ValidateAssignment(backend.Stricter(requested, announced), kinds, len(dp.sched)); err != nil {
		return fmt.Errorf("%w: rejecting server plan: %w", ErrRefused, err)
	}
	return dp.SetBackendPlan(kinds)
}

// readLoop feeds the server's frames to the call table until the edge
// fails, which takes the session down. It never blocks on a call, which
// takes each answer before it sends again.
func (c *Client) readLoop(ctx context.Context) {
	for {
		msg, err := c.in.Recv(ctx)
		if errors.Is(err, stream.ErrEdgeClosed) {
			err = errors.New("session closed by server")
		}
		if err != nil {
			c.step(func(t *callTable) callStep { return t.fail(fmt.Errorf("%w: %w", ErrSessionDown, err)) })
			return
		}
		c.step(func(t *callTable) callStep { return t.reply(msg) })
	}
}

// step runs a transition of the call table under the client's lock and
// carries out its step: counters, then the answers.
func (c *Client) step(transition func(*callTable) callStep) callStep {
	st := locked(&c.mu, func() callStep { return transition(&c.table) })
	for _, name := range st.count {
		c.reg.Counter(name).Inc()
	}
	for _, a := range st.answers {
		a.to.reply <- a
	}
	return st
}

// locked runs f under mu, released on every path, a panic's included.
func locked[S any](mu *sync.Mutex, f func() S) S {
	mu.Lock()
	defer mu.Unlock()
	return f()
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
	// The budget runs from entry, so window queueing counts. The call's
	// deadline, the tighter of it and ctx's, bounds sends and waits alike.
	if c.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadlineCause(ctx, begin.Add(c.deadline), ErrDeadline)
		defer cancel()
	}
	select {
	case c.window <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, context.Cause(ctx)
	}
	defer func() { <-c.window }()
	tree := &obs.TraceTree{ID: obs.NewTraceID()}
	tree.Segments = append(tree.Segments, obs.Segment{Party: "client", Name: "queue", Round: -1, Dur: time.Since(begin)})

	req := c.nextID.Add(1)
	reply := make(chan answer, 1)
	deadline, _ := ctx.Deadline()
	if st := c.step(func(t *callTable) callStep { return t.open(req, deadline, reply) }); st.err != nil {
		return nil, nil, st.err
	}
	defer c.step(func(t *callTable) callStep { return t.end(req) })

	start := time.Now()
	var meter obs.CostMeter
	env, err := c.dp.EncryptMetered(req, x, &meter)
	if err != nil {
		return nil, nil, err
	}
	tree.Segments = append(tree.Segments, obs.Segment{Party: "client", Name: "encrypt", Round: -1, Dur: time.Since(start), Cost: costOrNil(meter.Snapshot())})
	for round := 0; round < len(c.dp.stages); round++ {
		if env, err = c.round(ctx, reply, round, env, tree); err != nil {
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
func (c *Client) round(ctx context.Context, reply <-chan answer, round int, env *Envelope, tree *obs.TraceTree) (*Envelope, error) {
	req, start := env.Req, time.Now()
	w, err := ToWire(env)
	if err != nil {
		return nil, err
	}
	frame, err := c.exchange(ctx, reply, req, &roundFrame{Round: round, Env: w, Trace: tree.ID})
	if err != nil {
		return nil, err
	}
	traffic := obs.CostStats{CipherBytesOut: w.CipherBytes(), CipherBytesIn: frame.Env.CipherBytes()}
	if env, err = FromWire(frame.Env, &c.dp.sk.PublicKey); err != nil {
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

// exchange sends call req's round frame, stamped by the call table, and
// waits for the table's answer: the reply, an error, or a resend of round 0
// after a backoff. A failed send not due to ctx takes the session down.
func (c *Client) exchange(ctx context.Context, reply <-chan answer, req uint64, frame *roundFrame) (*roundFrame, error) {
	for {
		if st := c.step(func(t *callTable) callStep { return t.send(time.Now(), req, frame) }); st.err != nil {
			return nil, st.err
		}
		if err := c.out.Send(ctx, &stream.Message{Seq: req, Payload: frame}); err != nil {
			if ctx.Err() != nil {
				return nil, context.Cause(ctx)
			}
			return nil, c.step(func(t *callTable) callStep { return t.fail(fmt.Errorf("%w: %w", ErrSessionDown, err)) }).err
		}
		var a answer
		select {
		case a = <-reply:
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
		if a.retry == 0 {
			return a.frame, a.err
		}
		if err := retrySleep(ctx, c.retry.backoff(a.retry)); err != nil {
			return nil, err
		}
	}
}

// Close ends the session.
func (c *Client) Close() error { return c.out.CloseSend() }
