package protocol

import (
	"context"
	"errors"
	mathrand "math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"ppstream/internal/backend"
	"ppstream/internal/nn"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// tcpPair returns the two ends of a loopback TCP connection as edges,
// closed when the test ends.
func tcpPair(t testing.TB) (dialed, accepted stream.Edge) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return stream.NewTCPEdge(client), stream.NewTCPEdge(server)
}

// sayHello sends hello on edge, as a client's opening frame, and requires
// the server's answer to accept it.
func sayHello(ctx context.Context, t *testing.T, edge stream.Edge, hello *Hello) {
	t.Helper()
	if err := edge.Send(ctx, &stream.Message{Payload: hello}); err != nil {
		t.Fatal(err)
	}
	answer, err := edge.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := answer.Payload.(*Hello); !ok || answer.Err != nil {
		t.Fatalf("hello answered with %T, %v; want the accepting Hello", answer.Payload, answer.Err)
	}
}

// allPaillier is a server's answer accepting a privacy-max client's Hello
// for a model of rounds linear rounds: paillier-he's wire code is 0.
func allPaillier(rounds int) *stream.Message {
	return &stream.Message{Payload: &Hello{Profile: string(backend.ProfilePrivacyMax), Plan: make([]int32, rounds)}}
}

// rewritten is a client's edge to the server that puts rewrite's frame on
// the wire in place of the client's Hello.
type rewritten struct {
	stream.Edge
	rewrite func(*Hello) any
}

func (e rewritten) Send(ctx context.Context, m *stream.Message) error {
	if h, ok := m.Payload.(*Hello); ok && e.rewrite != nil {
		m = &stream.Message{Payload: e.rewrite(h)}
	}
	return e.Edge.Send(ctx, m)
}

// deeperNet is buildNet with a second FC merged into round 0: its rounds
// carry buildNet's element counts, but round 0 replies at F³, not F².
func deeperNet(t *testing.T) *nn.Network {
	t.Helper()
	r := mathrand.New(mathrand.NewSource(9))
	net, err := nn.NewNetwork("proto-deeper", tensor.Shape{4}, nn.NewFC("fc1", 4, 6, r), nn.NewFC("fc1b", 6, 6, r),
		nn.NewReLU("relu1"), nn.NewFC("fc2", 6, 3, r), nn.NewSoftMax("softmax"))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestHelloOutcomes: every refused Hello gets its one answer. Whichever
// party refuses — the server with an error frame, or a privacy-max client
// the plan in the server's answer — NewClient returns the cause as an
// ErrRefused within a second and the server's session returns, over
// in-process edges and over TCP; a Redialer meets the refusal at its one
// dial and does not dial again. A client whose schedule fixes other reply
// exponents than the served network's is refused at the Hello, and so is a
// key too small for the served network's reply slots, which only the
// server knows.
func TestHelloOutcomes(t *testing.T) {
	netw := buildNet(t)
	k := key(t)
	// wide is deeperNet with every weight 2·10⁶, 2·10⁹ once scaled: with no
	// declared input domain, round 0's two merged layers need 131-bit
	// reply slots.
	wide := deeperNet(t)
	for _, l := range wide.Layers {
		if fc, ok := l.(*nn.FC); ok {
			fc.W.Fill(2e6)
		}
	}
	served, err := BuildModelProvider(netw, &k.PublicKey, Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// The server's policy lets the client's request decide, and certifies
	// round 1 for the clear backend, so a latency request gets a plan that
	// takes it off Paillier.
	cfg := SessionConfig{Factor: 1000, Profile: backend.ProfileLatency, ClearBoundary: 1}
	rows := []struct {
		name    string
		factor  int64
		rewrite func(*Hello) any
		// foreign: the server serves one provider, for another key.
		foreign bool
		// serves is the network the server serves and arch the one the
		// client is built from; nil is netw.
		serves, arch *nn.Network
		// keyBits sizes the client's key; 0 is key(t)'s.
		keyBits int
		cause   string
	}{
		{name: "factor mismatch", factor: 999, cause: "client factor 999 does not match server's 1000"},
		{name: "round frame first", rewrite: func(*Hello) any { return &roundFrame{} }, cause: "expected Hello, got *protocol.roundFrame"},
		{name: "unparseable key", rewrite: func(h *Hello) any { h.N = []byte{7}; return h }, cause: "hello public key rejected"},
		{name: "unknown profile", rewrite: func(h *Hello) any { h.Profile = "fastest"; return h }, cause: `unknown profile "fastest"`},
		{name: "foreign key", foreign: true, cause: "not the served model provider's key"},
		{name: "plan privacy-max refuses", rewrite: func(h *Hello) any { h.Profile = string(backend.ProfileLatency); return h }, cause: "rejecting server plan"},
		{name: "another network", serves: deeperNet(t), cause: "client reply exponents [2 2] do not match the served network's [3 2]"},
		{name: "reply exponent rewritten", rewrite: func(h *Hello) any { h.Exps[0]++; return h }, cause: "client reply exponents [3 2] do not match the served network's [2 2]"},
		{name: "key holds no slot", serves: wide, arch: wide, keyBits: 128, cause: "needs 131-bit reply slots, more than a 128-bit key holds"},
	}
	// A transport is the edges from the server to the client and from the
	// client to the server, as each end holds them.
	type ends struct{ clientIn, clientOut, serverIn, serverOut stream.Edge }
	transports := map[string]func(t *testing.T) ends{
		"channel": func(*testing.T) ends {
			toServer, toClient := stream.NewChannelEdge(1), stream.NewChannelEdge(1)
			return ends{toClient, toServer, toServer, toClient}
		},
		"tcp": func(t *testing.T) ends {
			client, server := tcpPair(t)
			return ends{client, client, server, server}
		},
	}
	for _, row := range rows {
		for name, transport := range transports {
			t.Run(row.name+"/"+name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				factor := int64(1000)
				if row.factor != 0 {
					factor = row.factor
				}
				serves := netw
				if row.serves != nil {
					serves = row.serves
				}
				arch := netw
				if row.arch != nil {
					arch = row.arch
				}
				ownKey := k
				if row.foreign {
					ownKey = keyOfBits(t, 512)
				}
				if row.keyBits != 0 {
					ownKey = keyOfBits(t, row.keyBits)
				}
				dp, err := BuildDataProvider(arch, ownKey, Config{Factor: factor})
				if err != nil {
					t.Fatal(err)
				}
				var sessions []chan error
				// dial opens one session: the server first, then the client.
				dial := func(ctx context.Context) (*Client, error) {
					e := transport(t)
					done := make(chan error, 1)
					sessions = append(sessions, done)
					go func() {
						if row.foreign {
							done <- ServeSession(ctx, e.serverIn, e.serverOut, served, cfg)
						} else {
							done <- ServeSessionConfig(ctx, e.serverIn, e.serverOut, serves, cfg)
						}
					}()
					return NewClient(ctx, e.clientIn, rewritten{e.clientOut, row.rewrite}, dp, ClientOptions{})
				}
				// ended waits for the sessions dialed so far to return.
				ended := func() {
					t.Helper()
					for _, done := range sessions {
						select {
						case <-done:
						case <-time.After(time.Second):
							t.Fatal("the server's session did not return within 1 s of the refusal")
						}
					}
					sessions = nil
				}

				begin := time.Now()
				c, err := dial(ctx)
				if took := time.Since(begin); err == nil || took > time.Second {
					if c != nil {
						c.Close()
					}
					t.Fatalf("NewClient: %v after %v, want the refusal within 1 s", err, took)
				}
				if !errors.Is(err, ErrRefused) || !strings.Contains(err.Error(), row.cause) {
					t.Errorf("NewClient: %v, want an ErrRefused naming %q", err, row.cause)
				}
				ended()

				dials := 0
				r := NewRedialer(func(ctx context.Context) (*Client, error) {
					dials++
					return dial(ctx)
				}, RetryPolicy{BaseBackoff: time.Millisecond}, nil)
				defer r.Close()
				if _, err := r.Infer(ctx, tensor.Zeros(4)); err == nil || !strings.Contains(err.Error(), row.cause) || errors.Is(err, ErrSessionDown) {
					t.Errorf("Redialer: %v, want the refusal and no session down", err)
				}
				if dials != 1 {
					t.Errorf("Redialer dialed %d times on a refused Hello, want 1", dials)
				}
				ended()
			})
		}
	}
}

// TestHelloWorkersBounded: a Hello's thread request is a client's to
// choose, so a server with no SessionConfig.MaxWorkers bounds it by the
// cores the process may use: a request for 1<<20 threads gets stages of
// at most GOMAXPROCS threads each.
func TestHelloWorkersBounded(t *testing.T) {
	_, sched, stages, err := walk(buildNet(t), 1000)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := building(sched, stages, nil, SessionConfig{Factor: 1000})(&Hello{Workers: 1 << 20}, &key(t).PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	for r, st := range mp.stages {
		if limit := runtime.GOMAXPROCS(0); st.Threads < 1 || st.Threads > limit {
			t.Errorf("stage %d runs on %d threads for a Hello asking 1<<20, want 1..%d", r, st.Threads, limit)
		}
	}
}
