package protocol

import (
	"bytes"
	"context"
	"errors"
	"math"
	mathrand "math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppstream/internal/models"
	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// TestServiceSessionEndToEnd runs the server/client session layer over
// an in-memory connection pair: the deployment path of cmd/ppserver and
// cmd/ppclient.
func TestServiceSessionEndToEnd(t *testing.T) {
	netw := buildNet(t)
	h := open(t, opening{tcp: true, net: netw, cfg: SessionConfig{MaxWorkers: 4}, opts: ClientOptions{Workers: 2}})
	client, ctx := h.client, h.ctx
	r := mathrand.New(mathrand.NewSource(201))
	for trial := 0; trial < 3; trial++ {
		x := tensor.Zeros(4)
		for i := range x.Data() {
			x.Data()[i] = r.NormFloat64()
		}
		got, err := client.Infer(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := netw.Forward(x)
		if !tensor.AllClose(want, got, 1e-2) {
			t.Errorf("trial %d: remote inference diverges", trial)
		}
	}
	client.Close()
	if err := h.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestServiceRejectsFactorMismatch: the server refuses a client whose
// scaling factor differs (the quantized weights would not match), and the
// client's NewClient fails with the refusal.
func TestServiceRejectsFactorMismatch(t *testing.T) {
	h, err := dial(t, opening{tcp: true, factor: 999, cfg: SessionConfig{MaxWorkers: 4}, opts: ClientOptions{Workers: 1}})
	if !errors.Is(err, ErrRefused) || !strings.Contains(err.Error(), "factor 999") {
		t.Errorf("client at factor 999: %v, want the refusal", err)
	}
	if err := h.wait(); err == nil {
		t.Error("factor mismatch accepted")
	}
}

// hostile opens a session over TCP, sends hello as its first frame, and
// returns the session's end and the first frame it sent back, if any.
func hostile(t *testing.T, hello *Hello) (error, *stream.Message) {
	t.Helper()
	h := open(t, opening{tcp: true, hostile: true, cfg: SessionConfig{MaxWorkers: 4}})
	if err := h.edge.Send(h.ctx, &stream.Message{Payload: hello}); err != nil {
		t.Fatal(err)
	}
	reply, _ := h.edge.Recv(h.ctx)
	return h.wait(), reply
}

// TestServiceRejectsTinyModulus: a Hello announcing a modulus far below
// the minimum key size must be rejected at session setup with a clear
// error frame — not fail deep inside the linear kernel.
func TestServiceRejectsTinyModulus(t *testing.T) {
	err, reply := hostile(t, &Hello{N: []byte{7}, Factor: 1000, Workers: 1})
	if err == nil {
		t.Fatal("tiny modulus accepted")
	}
	if !strings.Contains(err.Error(), "hello public key rejected") {
		t.Errorf("unexpected error: %v", err)
	}
	if reply == nil || reply.Err == nil {
		t.Error("client did not receive an error frame")
	}
}

// TestServiceRejectsEmptyKey: a Hello with no modulus bytes fails fast.
func TestServiceRejectsEmptyKey(t *testing.T) {
	err, reply := hostile(t, &Hello{Factor: 1000, Workers: 1})
	if err == nil {
		t.Fatal("empty public key accepted")
	}
	if reply == nil || reply.Err == nil {
		t.Error("client did not receive an error frame")
	}
}

// TestServiceRejectsOversizedKey: a hostile modulus above the size cap is
// rejected before the server allocates power tables over it.
func TestServiceRejectsOversizedKey(t *testing.T) {
	huge := make([]byte, maxHelloKeyBytes+1)
	huge[0] = 1
	err, reply := hostile(t, &Hello{N: huge, Factor: 1000, Workers: 1})
	if err == nil {
		t.Fatal("oversized public key accepted")
	}
	if !strings.Contains(err.Error(), "limit") {
		t.Errorf("unexpected error: %v", err)
	}
	if reply == nil || reply.Err == nil {
		t.Error("client did not receive an error frame")
	}
}

// TestServiceRefusesForeignWire: a peer that opens with anything but the
// wire preface — here the first bytes of a gob stream, what every peer
// before wire format v1 sent — ends the session with stream.ErrWireVersion
// and is told why in an error frame; nothing hangs and nothing panics.
func TestServiceRefusesForeignWire(t *testing.T) {
	h := open(t, opening{tcp: true, hostile: true, cfg: SessionConfig{MaxWorkers: 4}})
	if _, err := h.conn.Write([]byte{0x37, 0xff, 0x81, 0x03, 0x01, 0x01, 0x09, 'w', 'i', 'r', 'e', 'F', 'r', 'a', 'm', 'e'}); err != nil {
		t.Fatal(err)
	}
	reply, err := h.edge.Recv(h.ctx)
	if err != nil || reply.Err == nil || !strings.Contains(reply.Err.Error(), "unsupported wire version") {
		t.Errorf("peer received %+v, %v; want the version error", reply, err)
	}
	if err := h.wait(); !errors.Is(err, stream.ErrWireVersion) {
		t.Errorf("server ended with %v, want stream.ErrWireVersion", err)
	}
}

// TestHelloPublicKeyAcceptsValid: the validator passes a well-formed key
// through unchanged.
func TestHelloPublicKeyAcceptsValid(t *testing.T) {
	k := key(t)
	pk, err := helloPublicKey(&Hello{N: k.N.Bytes(), Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if pk.N.Cmp(k.N) != 0 {
		t.Error("modulus mangled")
	}
}

// TestDataProviderNeedsNoWeights: the client role builds from an
// architecture whose every linear weight and bias is NaN — a fully
// connected one and MNIST-2's convolution — and a session against a server
// of the real network returns what Protocol.Infer does, bit for bit. The
// data provider never reads a weight: quantizing a NaN one is refused with
// a *qnn.WeightRangeError, so a client that did would not build.
func TestDataProviderNeedsNoWeights(t *testing.T) {
	spec, err := models.ByName("MNIST-2")
	if err != nil {
		t.Fatal(err)
	}
	mnist, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, netw := range []*nn.Network{buildNet(t), mnist} {
		t.Run(netw.ModelName, func(t *testing.T) {
			const factor = 1000
			k := key(t)
			x := tensor.Zeros(netw.InputShape...)
			for i := range x.Data() {
				x.Data()[i] = float64(i%5) / 4
			}
			proto, err := Build(netw, k, Config{Factor: factor})
			if err != nil {
				t.Fatal(err)
			}
			want, err := proto.Infer(1, x)
			if err != nil {
				t.Fatal(err)
			}
			arch := netw.Clone()
			for _, l := range arch.Layers {
				if p, ok := l.(nn.Trainable); ok && l.Kind() == nn.Linear {
					for _, param := range p.Params() {
						param.Fill(math.NaN())
					}
				}
			}
			h := open(t, opening{net: netw, arch: arch, cfg: SessionConfig{Factor: factor}, opts: ClientOptions{Workers: 1}})
			got, err := h.client.Infer(h.ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Data(), want.Data()) {
				t.Errorf("weightless client: %v, Protocol.Infer: %v", got.Data(), want.Data())
			}
			h.client.Close()
			if err := h.wait(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestServeKeepsNoFloatNetwork: Serve walks the network it is handed once
// and keeps none of it. With the caller holding no reference, fc1's float
// weights are collected while Serve is still accepting, and sessions opened
// afterwards under two different keys still return what Protocol.Infer
// does, bit for bit. Each session is logged with its remote address, its
// edge counts into the registry, and closing the listener ends Serve once
// every session has.
func TestServeKeepsNoFloatNetwork(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var (
		collected atomic.Bool
		logs      bytes.Buffer
	)
	reg := obs.NewRegistry("serve-test")
	served := make(chan error, 1)
	netw := buildNet(t)
	runtime.SetFinalizer(netw.Layers[0].(*nn.FC).W, func(*tensor.Dense) { collected.Store(true) })
	// Handed over as an argument: from here on this test keeps no
	// reference to the network.
	go func(netw *nn.Network) {
		served <- Serve(ctx, ln, netw, SessionConfig{Factor: 1000, MaxWorkers: 2, Registry: reg, Log: obs.NewLogger(&logs, obs.LevelInfo)})
	}(netw)
	for deadline := time.Now().Add(5 * time.Second); !collected.Load() && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("fc1's float weights are still reachable while Serve accepts")
	}

	// The sessions run at once: they share the walk's quantized ops.
	r := mathrand.New(mathrand.NewSource(23))
	keys := []*paillier.PrivateKey{key(t), keyOfBits(t, 512)}
	const sessions = 4
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		k := keys[s%len(keys)]
		ref, err := Build(buildNet(t), k, Config{Factor: 1000})
		if err != nil {
			t.Fatal(err)
		}
		arch := buildNet(t)
		inputs := []*tensor.Dense{tensor.Zeros(4), tensor.Zeros(4)}
		for _, x := range inputs {
			for j := range x.Data() {
				x.Data()[j] = r.NormFloat64()
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			edge := stream.NewTCPEdge(conn)
			client, err := NewClientOpts(ctx, edge, edge, arch, k, 1000, ClientOptions{Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			defer client.Close()
			for i, x := range inputs {
				want, err := ref.Infer(uint64(i+1), x)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := client.Infer(ctx, x)
				if err != nil {
					t.Errorf("session %d request %d: %v", s, i, err)
					return
				}
				if !tensor.AllClose(got, want, 0) {
					t.Errorf("session %d (%d-bit key) request %d: served %v, Protocol.Infer %v", s, k.Bits(), i, got.Data(), want.Data())
				}
			}
		}()
	}
	wg.Wait()
	// One more session stays open: closing the listener must close it.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	edge := stream.NewTCPEdge(conn)
	client, err := NewClientOpts(ctx, edge, edge, buildNet(t), key(t), 1000, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Infer(ctx, tensor.Zeros(4)); err != nil {
		t.Fatal(err)
	}
	ln.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve after the listener closed: %v", err)
	}
	if _, err := client.Infer(ctx, tensor.Zeros(4)); !errors.Is(err, ErrSessionDown) {
		t.Errorf("a session Serve left behind still answers: %v", err)
	}

	text := logs.String()
	if n := strings.Count(text, `"msg":"session opened","remote":"127.0.0.1:`); n != sessions+1 {
		t.Errorf("%d sessions logged as opened with their remote address, want %d:\n%s", n, sessions+1, text)
	}
	if n := strings.Count(text, `"msg":"session closed"`) + strings.Count(text, `"msg":"session failed"`); n != sessions+1 {
		t.Errorf("%d sessions logged as ended, want %d:\n%s", n, sessions+1, text)
	}
	if c := reg.Snapshot().Counters; c["tcp.frames_recv"] == 0 || c["tcp.bytes_sent"] == 0 {
		t.Errorf("the sessions' edges counted nothing: %v", c)
	}
}
