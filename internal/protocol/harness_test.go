package protocol

import (
	"context"
	"crypto/rand"
	mathrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppstream/internal/backend"
	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/qnn"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// This file holds what the package's tests share: the keys, the test
// networks, and dial, the one way a test opens a session. dial serves the
// session the test describes over a channel pair or loopback TCP, opens
// the client side it asks for, and registers one cleanup that ends the
// session and checks that it returned within 10 s and that its copy of the
// model provider holds no request's permutation state.

var (
	keysMu sync.Mutex
	keys   = map[int]*paillier.PrivateKey{}
)

// key returns the shared 256-bit test key.
func key(t testing.TB) *paillier.PrivateKey { return keyOfBits(t, 256) }

// keyOfBits returns a shared test key of the given size.
func keyOfBits(t testing.TB, bits int) *paillier.PrivateKey {
	t.Helper()
	keysMu.Lock()
	defer keysMu.Unlock()
	if k := keys[bits]; k != nil {
		return k
	}
	k, err := paillier.GenerateKey(rand.Reader, bits)
	if err != nil {
		t.Fatal(err)
	}
	keys[bits] = k
	return k
}

// network builds a test network, failing the test on an error.
func network(t testing.TB, name string, in tensor.Shape, layers ...nn.Layer) *nn.Network {
	t.Helper()
	net, err := nn.NewNetwork(name, in, layers...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// buildNet makes a small FC network: two rounds (L,N,L,N).
func buildNet(t testing.TB) *nn.Network {
	r := mathrand.New(mathrand.NewSource(9))
	return network(t, "proto-test", tensor.Shape{4},
		nn.NewFC("fc1", 4, 6, r), nn.NewReLU("relu1"), nn.NewFC("fc2", 6, 3, r), nn.NewSoftMax("softmax"))
}

// deeperNet is buildNet with a second FC merged into round 0: its rounds
// carry buildNet's element counts, but round 0 replies at F³, not F².
func deeperNet(t testing.TB) *nn.Network {
	r := mathrand.New(mathrand.NewSource(9))
	return network(t, "proto-deeper", tensor.Shape{4}, nn.NewFC("fc1", 4, 6, r), nn.NewFC("fc1b", 6, 6, r),
		nn.NewReLU("relu1"), nn.NewFC("fc2", 6, 3, r), nn.NewSoftMax("softmax"))
}

// buildNet3 makes a three-round FC network (L,N,L,N,L,N): round 0 is
// forced Paillier, round 1 is followed by a ReLU (the garbled-circuit
// case), and round 2 can sit past a certified clear boundary. Its inputs
// are declared within ±4, which keeps every round's values inside ss-gc's
// 64-bit ring at factor 1000.
func buildNet3(t testing.TB) *nn.Network {
	r := mathrand.New(mathrand.NewSource(41))
	net := network(t, "proto-test-3r", tensor.Shape{4},
		nn.NewFC("fc1", 4, 6, r), nn.NewReLU("relu1"),
		nn.NewFC("fc2", 6, 5, r), nn.NewReLU("relu2"),
		nn.NewFC("fc3", 5, 3, r), nn.NewSoftMax("softmax"))
	net.InputMax = 4
	return net
}

// zeroWeightNet is buildNet3 with every weight zeroed and every bias 0.5:
// each kernel row is then the deterministic embedding of the same bias,
// whatever the input and whatever the permutation — the case that leaked
// before rows were blinded, and that only Pack's blinding hides now.
func zeroWeightNet(t testing.TB) *nn.Network {
	net := buildNet3(t)
	for _, l := range net.Layers {
		if fc, ok := l.(*nn.FC); ok {
			fc.W.Fill(0)
			fc.B.Fill(0.5)
		}
	}
	return net
}

// buildConvNet makes a conv network: conv+relu+fc+softmax.
func buildConvNet(t testing.TB) *nn.Network {
	r := mathrand.New(mathrand.NewSource(10))
	p := tensor.ConvParams{InC: 1, InH: 6, InW: 6, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv, err := nn.NewConv("conv1", p, r)
	if err != nil {
		t.Fatal(err)
	}
	return network(t, "proto-conv", tensor.Shape{1, 6, 6},
		conv, nn.NewReLU("relu1"), nn.NewFlatten("flatten"), nn.NewFC("fc", 2*6*6, 3, r), nn.NewSoftMax("softmax"))
}

// hookedOp runs hook whenever the op it wraps is asked for its kernel
// rows, which paillier-he and ss-gc do before they evaluate the op.
type hookedOp struct {
	qnn.Op
	hook func()
}

func (o hookedOp) KernelRows(in tensor.Shape, lo, hi int) []paillier.Row {
	o.hook()
	return o.Op.KernelRows(in, lo, hi)
}

// hookRound makes round r of proto's model provider, and of every session
// copy of it, run hook first.
func hookRound(proto *Protocol, r int, hook func()) {
	st := proto.Model.stages[r]
	st.Ops = append([]qnn.Op(nil), st.Ops...)
	st.Ops[0] = hookedOp{Op: st.Ops[0], hook: hook}
}

// loopback returns the two ends of a loopback TCP connection, closed when
// the test ends.
func loopback(t testing.TB) (dialed, accepted net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if dialed, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if accepted, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialed.Close(); accepted.Close() })
	return dialed, accepted
}

// duplex is one end of a session over two one-way edges.
type duplex struct{ out, in stream.Edge }

func (d duplex) Send(ctx context.Context, m *stream.Message) error { return d.out.Send(ctx, m) }

func (d duplex) Recv(ctx context.Context) (*stream.Message, error) { return d.in.Recv(ctx) }

func (d duplex) CloseSend() error { return d.out.CloseSend() }

// rewritten is a client's edge to the server that puts rewrite's frame on
// the wire in place of the client's Hello.
type rewritten struct {
	stream.Edge
	rewrite func(*Hello) any
}

func (e rewritten) Send(ctx context.Context, m *stream.Message) error {
	if h, ok := m.Payload.(*Hello); ok {
		m = &stream.Message{Payload: e.rewrite(h)}
	}
	return e.Edge.Send(ctx, m)
}

// allPaillier is a server's answer accepting a privacy-max client's Hello
// for a model of rounds linear rounds: paillier-he's wire code is 0.
func allPaillier(rounds int) *stream.Message {
	return &stream.Message{Payload: &Hello{Profile: string(backend.ProfilePrivacyMax), Plan: make([]int32, rounds)}}
}

// opening describes the session a test opens with dial.
type opening struct {
	// tcp opens it over loopback TCP, the session's edge counting "tcp.*"
	// into its registry as Serve's do; otherwise over two channel edges of
	// depth frames (at least 1).
	tcp   bool
	depth int
	// net is the network served (nil: buildNet): walked once, and a model
	// provider built for each Hello, as ServeSessionConfig serves it. With
	// proto set the harness builds a Protocol of net under key(t) instead,
	// whose rounds in hooks run their hook first, and serves its model
	// provider on a copy per session, as ServeSession does; a client of
	// another key meets ServeSession itself.
	net   *nn.Network
	proto bool
	hooks map[int]func()
	// cfg is the session's; a zero Factor is 1000, a nil Registry a fresh
	// one.
	cfg SessionConfig
	// The client side is a Client, unless raw, hostile or script is set:
	// raw is an edge the harness sends the Hello on and requires accepted,
	// hostile one it sends nothing on, and script serves no session: the
	// test plays the server on h.peer, the harness having answered the
	// Hello with the all-Paillier plan.
	raw, hostile, script bool
	// The client's architecture, key and factor; nil and zero are the
	// served network, key(t) and cfg.Factor. With proto set and none of
	// them given, the client is the Protocol's data provider.
	arch   *nn.Network
	key    *paillier.PrivateKey
	factor int64
	opts   ClientOptions
	// hello puts its return on the wire in place of the client's Hello;
	// sends and answers wrap the client's and the session's outgoing edges.
	hello          func(*Hello) any
	sends, answers func(stream.Edge) stream.Edge
}

// harness is a session dial opened and the test's end of it.
type harness struct {
	t      *testing.T
	ctx    context.Context // the session's, cancelled at cleanup
	cancel context.CancelFunc
	reg    *obs.Registry
	proto  *Protocol     // with opening.proto
	dp     *DataProvider // the client's role
	client *Client
	// edge is a raw or hostile client's end, conn its TCP connection, and
	// s the session once a raw client's Hello is answered. peer is the
	// server's end a script plays.
	edge, peer stream.Edge
	conn       net.Conn
	s          *session
	own        atomic.Pointer[ModelProvider] // the session's copy of the provider
	done       chan struct{}                 // closed once the session returned err
	err        error
}

// open is dial for a client that must open.
func open(t *testing.T, o opening) *harness {
	t.Helper()
	h, err := dial(t, o)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// dial serves the session o describes and opens its client side. It
// returns NewClient's error, and fails the test on any other.
func dial(t *testing.T, o opening) (*harness, error) {
	t.Helper()
	ownClient := o.arch != nil || o.key != nil || o.factor != 0
	if o.cfg.Factor == 0 {
		o.cfg.Factor = 1000
	}
	if o.cfg.Registry == nil {
		o.cfg.Registry = obs.NewRegistry(t.Name())
	}
	if o.net == nil {
		o.net = buildNet(t)
	}
	if o.arch == nil {
		o.arch = o.net
	}
	if o.key == nil {
		o.key = key(t)
	}
	if o.factor == 0 {
		o.factor = o.cfg.Factor
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	h := &harness{t: t, ctx: ctx, cancel: cancel, reg: o.cfg.Registry, done: make(chan struct{})}
	t.Cleanup(cancel)
	var provide provider
	if o.proto {
		proto, err := Build(o.net, key(t), Config{Factor: o.cfg.Factor})
		if err != nil {
			t.Fatal(err)
		}
		for r, hook := range o.hooks {
			hookRound(proto, r, hook)
		}
		h.proto = proto
		if !ownClient {
			h.dp = proto.Data
		}
		provide = func(*Hello, *paillier.PublicKey) (*ModelProvider, error) { return proto.Model.forSession(), nil }
	} else {
		_, sched, stages, err := walk(o.net, o.cfg.Factor)
		provide = building(sched, stages, err, o.cfg)
	}
	if h.dp == nil && (o.raw || o.script) {
		dp, err := BuildDataProvider(o.arch, o.key, Config{Factor: o.factor, Workers: o.opts.Workers})
		if err != nil {
			t.Fatal(err)
		}
		h.dp = dp
	}

	var cin, cout, sin, sout stream.Edge
	if o.tcp {
		dialed, accepted := loopback(t)
		client, server := stream.NewTCPEdge(dialed), stream.NewInstrumentedTCPEdge(accepted, h.reg, "tcp")
		h.conn, cin, cout, sin, sout = dialed, client, client, server, server
	} else {
		toServer, toClient := stream.NewChannelEdge(o.depth), stream.NewChannelEdge(o.depth)
		cin, cout, sin, sout = toClient, toServer, toServer, toClient
	}
	if o.hello != nil {
		cout = rewritten{cout, o.hello}
	}
	if o.sends != nil {
		cout = o.sends(cout)
	}
	if o.answers != nil {
		sout = o.answers(sout)
	}

	observed := func(hello *Hello, pk *paillier.PublicKey) (*ModelProvider, error) {
		mp, err := provide(hello, pk)
		if mp != nil {
			h.own.Store(mp)
		}
		return mp, err
	}
	opened := make(chan *session, 1)
	serve := func() error { return serveSession(ctx, sin, sout, o.cfg, observed) }
	switch {
	case o.script:
		serve = nil
		close(h.done)
	case o.proto && o.key.N.Cmp(h.proto.Model.pk.N) != 0:
		serve = func() error { return ServeSession(ctx, sin, sout, h.proto.Model, o.cfg) }
	case o.raw || o.hostile:
		// The session's own steps, so that the test can reach it.
		serve = func() error {
			s, err := openSession(ctx, sin, sout, o.cfg, observed)
			if err != nil {
				return err
			}
			opened <- s
			return s.serve(sin)
		}
	}
	if serve != nil {
		go func() {
			defer close(h.done)
			h.err = serve()
		}()
	}
	t.Cleanup(h.end)

	switch {
	case o.raw:
		h.edge = duplex{out: cout, in: cin}
		hello := &Hello{N: h.dp.sk.N.Bytes(), Factor: h.dp.factor, Workers: o.opts.Workers, Exps: h.dp.exps(), InputMax: h.dp.inputMax}
		if err := h.edge.Send(ctx, &stream.Message{Payload: hello}); err != nil {
			t.Fatal(err)
		}
		answer, err := h.edge.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := answer.Payload.(*Hello); !ok || answer.Err != nil {
			t.Fatalf("hello answered with %T, %v; want the accepting Hello", answer.Payload, answer.Err)
		}
		h.s = <-opened
	case o.hostile:
		h.edge = duplex{out: cout, in: cin}
	case o.script:
		// The edge holds the answer until NewClient reads it.
		h.peer = duplex{out: sout, in: sin}
		if err := h.peer.Send(ctx, allPaillier(len(h.dp.sched))); err != nil {
			t.Fatal(err)
		}
		client, err := NewClient(ctx, cin, cout, h.dp, o.opts)
		if err != nil {
			t.Fatal(err)
		}
		h.client = client
		if msg, err := h.peer.Recv(ctx); err != nil {
			t.Fatal(err)
		} else if _, ok := msg.Payload.(*Hello); !ok {
			t.Fatalf("first frame %T, want the Hello", msg.Payload)
		}
	case h.dp != nil:
		client, err := NewClient(ctx, cin, cout, h.dp, o.opts)
		if err != nil {
			return h, err
		}
		h.client = client
	default:
		client, err := NewClientOpts(ctx, cin, cout, o.arch, o.key, o.factor, o.opts)
		if err != nil {
			return h, err
		}
		h.client, h.dp = client, client.dp
	}
	return h, nil
}

// end is the cleanup dial registers: it closes the client's side, and
// requires the session to return within 10 s holding no permutation state
// of any request, served, failed, abandoned or evicted.
func (h *harness) end() {
	if h.client != nil {
		h.client.Close()
	} else if h.edge != nil {
		h.edge.CloseSend()
	}
	select {
	case <-h.done:
	case <-time.After(10 * time.Second):
		h.t.Error("the session did not return within 10 s of its test's end")
		return
	}
	if own := h.own.Load(); own != nil {
		own.mu.Lock()
		n := len(own.state)
		own.mu.Unlock()
		if n != 0 {
			h.t.Errorf("the session returned holding permutation state for %d requests", n)
		}
	}
}

// wait returns the session's return, failing the test if it takes longer
// than ten seconds.
func (h *harness) wait() error {
	h.t.Helper()
	select {
	case <-h.done:
		return h.err
	case <-time.After(10 * time.Second):
		h.t.Fatal("the session did not end")
		return nil
	}
}

// send puts req's frame on a raw client's edge.
func (h *harness) send(req uint64, frame *roundFrame) {
	h.t.Helper()
	if err := h.edge.Send(h.ctx, &stream.Message{Seq: req, Payload: frame}); err != nil {
		h.t.Fatal(err)
	}
}

// replyOK is recv's want for a reply that carries no error.
const replyOK = -1

// recv returns the next reply, which must be an error frame with wire
// code want, or a round reply for replyOK.
func (h *harness) recv(want int) *stream.Message {
	h.t.Helper()
	m, err := h.edge.Recv(h.ctx)
	if err != nil {
		h.t.Fatal(err)
	}
	if got := errCode(m.Err); (m.Err == nil) != (want == replyOK) || (m.Err != nil && got != want) {
		h.t.Fatalf("reply for request %d: code %d err %v, want code %d", m.Seq, got, m.Err, want)
	}
	return m
}

// roundZero is req's first frame for input x.
func (h *harness) roundZero(req uint64, x *tensor.Dense) *roundFrame {
	h.t.Helper()
	env, err := h.dp.EncryptMetered(req, x, nil)
	if err != nil {
		h.t.Fatal(err)
	}
	w, err := ToWire(env)
	if err != nil {
		h.t.Fatal(err)
	}
	return &roundFrame{Round: 0, Env: w}
}

// decode runs the data provider's round r on req's reply.
func (h *harness) decode(r int, req uint64, reply *stream.Message) *Envelope {
	h.t.Helper()
	env, err := FromWire(reply.Payload.(*roundFrame).Env, &h.dp.sk.PublicKey)
	if err != nil {
		h.t.Fatal(err)
	}
	env.Req = req
	if env, err = h.dp.ProcessNonLinearMetered(r, env, nil); err != nil {
		h.t.Fatal(err)
	}
	return env
}

// roundOne decodes req's round-0 reply and returns its round-1 frame.
func (h *harness) roundOne(req uint64, reply *stream.Message) *roundFrame {
	h.t.Helper()
	w, err := ToWire(h.decode(0, req, reply))
	if err != nil {
		h.t.Fatal(err)
	}
	return &roundFrame{Round: 1, Env: w}
}

// result is req's prediction from its last round's reply.
func (h *harness) result(req uint64, reply *stream.Message) *tensor.Dense {
	h.t.Helper()
	return h.decode(1, req, reply).Result
}

// midway runs req's round 0, its budget deadlineMS, and returns its
// round-1 frame, unsent.
func (h *harness) midway(req uint64, deadlineMS int64) *roundFrame {
	h.t.Helper()
	f := h.roundZero(req, tensor.Zeros(4))
	f.DeadlineMS = deadlineMS
	h.send(req, f)
	return h.roundOne(req, h.recv(replyOK))
}

// complete runs req through both rounds of the two-round test network.
func (h *harness) complete(req uint64) {
	h.t.Helper()
	h.send(req, h.midway(req, 0))
	h.recv(replyOK)
}

// waitOutcomes blocks until the session has published n terminal outcomes.
func (h *harness) waitOutcomes(n uint64) {
	h.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := h.reg.Snapshot().Counters
		if snap["serve.requests.ok"]+snap["serve.requests.err"]+snap["serve.requests.shed"] >= n {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("only %v of %d outcomes published", snap, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
