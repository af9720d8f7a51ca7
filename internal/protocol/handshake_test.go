package protocol

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"ppstream/internal/backend"
	"ppstream/internal/nn"
	"ppstream/internal/tensor"
)

// TestHelloOutcomes: every refused Hello gets its one answer. Whichever
// party refuses — the server with an error frame, or a privacy-max client
// the plan in the server's answer — NewClient returns the cause as an
// ErrRefused within a second and the server's session returns, over
// in-process edges and over TCP; a Redialer meets the refusal at its one
// dial and does not dial again. A client whose schedule fixes other reply
// exponents than the served network's is refused at the Hello, and so are
// one that declares another input domain — a wider one, or none — and a
// key too small for the served network's reply slots, which only the
// server knows.
func TestHelloOutcomes(t *testing.T) {
	// wide is deeperNet with every weight 2·10⁶, 2·10⁹ once scaled: with no
	// declared input domain, round 0's two merged layers need 131-bit
	// reply slots.
	wide := deeperNet(t)
	for _, l := range wide.Layers {
		if fc, ok := l.(*nn.FC); ok {
			fc.W.Fill(2e6)
		}
	}
	// domain is buildNet declaring its inputs within ±max.
	domain := func(max float64) *nn.Network {
		net := buildNet(t)
		net.InputMax = max
		return net
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
		// client is built from; nil is buildNet and serves.
		serves, arch *nn.Network
		// keyBits sizes the client's key; 0 is key(t)'s.
		keyBits int
		cause   string
	}{
		{name: "factor mismatch", factor: 999, cause: "client factor 999 does not match server's 1000"},
		{name: "round frame first", rewrite: func(*Hello) any { return &roundFrame{} }, cause: "expected Hello, got *protocol.roundFrame"},
		{name: "unparseable key", rewrite: func(h *Hello) any { h.N = []byte{7}; return h }, cause: "hello public key rejected"},
		{name: "unknown profile", rewrite: func(h *Hello) any { h.Profile = "fastest"; return h }, cause: `unknown profile "fastest"`},
		{name: "foreign key", foreign: true, keyBits: 512, cause: "not the served model provider's key"},
		{name: "plan privacy-max refuses", rewrite: func(h *Hello) any { h.Profile = string(backend.ProfileLatency); return h }, cause: "rejecting server plan"},
		{name: "another network", serves: deeperNet(t), arch: buildNet(t), cause: "client reply exponents [2 2] do not match the served network's [3 2]"},
		{name: "reply exponent rewritten", rewrite: func(h *Hello) any { h.Exps[0]++; return h }, cause: "client reply exponents [3 2] do not match the served network's [2 2]"},
		{name: "key holds no slot", serves: wide, keyBits: 128, cause: "needs 131-bit reply slots, more than a 128-bit key holds"},
		{name: "wider input domain", serves: domain(1), arch: domain(1000), cause: "client input domain 1000 does not match the served network's 1"},
		{name: "undeclared input domain", serves: domain(1), arch: buildNet(t), cause: "client input domain 0 does not match the served network's 1"},
	}
	for _, row := range rows {
		for _, transport := range []string{"channel", "tcp"} {
			t.Run(row.name+"/"+transport, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				o := opening{tcp: transport == "tcp", net: row.serves, proto: row.foreign, cfg: cfg,
					arch: row.arch, factor: row.factor, hello: row.rewrite}
				if row.keyBits != 0 {
					o.key = keyOfBits(t, row.keyBits)
				}
				var sessions []*harness
				// connect opens one session: the server first, then the client.
				connect := func(context.Context) (*Client, error) {
					h, err := dial(t, o)
					sessions = append(sessions, h)
					return h.client, err
				}
				// ended waits for the sessions dialed so far to return.
				ended := func() {
					t.Helper()
					for _, h := range sessions {
						select {
						case <-h.done:
						case <-time.After(time.Second):
							t.Fatal("the server's session did not return within 1 s of the refusal")
						}
					}
					sessions = nil
				}

				begin := time.Now()
				c, err := connect(ctx)
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
					return connect(ctx)
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
