package protocol

import (
	"context"
	"errors"
	mathrand "math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"ppstream/internal/nn"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// TestServiceSessionEndToEnd runs the server/client session layer over
// an in-memory connection pair: the deployment path of cmd/ppserver and
// cmd/ppclient.
func TestServiceSessionEndToEnd(t *testing.T) {
	RegisterServiceWire()
	k := key(t)
	netw := buildNet(t)
	const factor = 1000

	c2s1, s2c1 := net.Pipe() // client -> server
	c2s2, s2c2 := net.Pipe() // server -> client
	serverIn := stream.NewTCPEdge(s2c1)
	serverOut := stream.NewTCPEdge(c2s2)
	clientOut := stream.NewTCPEdge(c2s1)
	clientIn := stream.NewTCPEdge(s2c2)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ServeSessionConfig(ctx, serverIn, serverOut, netw, SessionConfig{Factor: factor, MaxWorkers: 4})
	}()

	client, err := NewClientOpts(ctx, clientIn, clientOut, netw, k, factor, ClientOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
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
	if err := <-serveErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestServiceRejectsFactorMismatch: the server refuses a client whose
// scaling factor differs (the quantized weights would not match).
func TestServiceRejectsFactorMismatch(t *testing.T) {
	RegisterServiceWire()
	k := key(t)
	netw := buildNet(t)

	c2s, s2c := net.Pipe()
	serverIn := stream.NewTCPEdge(s2c)
	clientOut := stream.NewTCPEdge(c2s)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ServeSessionConfig(ctx, serverIn, nil, netw, SessionConfig{Factor: 1000, MaxWorkers: 4})
	}()
	hello := &Hello{N: k.N.Bytes(), Factor: 999, Workers: 1}
	if err := clientOut.Send(ctx, &stream.Message{Payload: hello}); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err == nil {
		t.Error("factor mismatch accepted")
	}
}

// hostileHello sends a handcrafted Hello to a server over a full
// connection pair and returns the server's exit error plus the first frame
// (if any) the server sent back.
func hostileHello(t *testing.T, hello *Hello) (error, *stream.Message) {
	t.Helper()
	RegisterServiceWire()
	netw := buildNet(t)
	c2s1, s2c1 := net.Pipe()
	c2s2, s2c2 := net.Pipe()
	serverIn := stream.NewTCPEdge(s2c1)
	serverOut := stream.NewTCPEdge(c2s2)
	clientOut := stream.NewTCPEdge(c2s1)
	clientIn := stream.NewTCPEdge(s2c2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ServeSessionConfig(ctx, serverIn, serverOut, netw, SessionConfig{Factor: 1000, MaxWorkers: 4})
	}()
	if err := clientOut.Send(ctx, &stream.Message{Payload: hello}); err != nil {
		t.Fatal(err)
	}
	reply, _ := clientIn.Recv(ctx)
	return <-serveErr, reply
}

// TestServiceRejectsTinyModulus: a Hello announcing a modulus far below
// the minimum key size must be rejected at session setup with a clear
// error frame — not fail deep inside the linear kernel.
func TestServiceRejectsTinyModulus(t *testing.T) {
	err, reply := hostileHello(t, &Hello{N: []byte{7}, Factor: 1000, Workers: 1})
	if err == nil {
		t.Fatal("tiny modulus accepted")
	}
	if !strings.Contains(err.Error(), "hello public key rejected") {
		t.Errorf("unexpected error: %v", err)
	}
	if reply == nil || reply.Err == "" {
		t.Error("client did not receive an error frame")
	}
}

// TestServiceRejectsEmptyKey: a Hello with no modulus bytes fails fast.
func TestServiceRejectsEmptyKey(t *testing.T) {
	err, reply := hostileHello(t, &Hello{Factor: 1000, Workers: 1})
	if err == nil {
		t.Fatal("empty public key accepted")
	}
	if reply == nil || reply.Err == "" {
		t.Error("client did not receive an error frame")
	}
}

// TestServiceRejectsOversizedKey: a hostile modulus above the size cap is
// rejected before the server allocates power tables over it.
func TestServiceRejectsOversizedKey(t *testing.T) {
	huge := make([]byte, maxHelloKeyBytes+1)
	huge[0] = 1
	err, reply := hostileHello(t, &Hello{N: huge, Factor: 1000, Workers: 1})
	if err == nil {
		t.Fatal("oversized public key accepted")
	}
	if !strings.Contains(err.Error(), "limit") {
		t.Errorf("unexpected error: %v", err)
	}
	if reply == nil || reply.Err == "" {
		t.Error("client did not receive an error frame")
	}
}

// TestServiceRefusesForeignWire: a peer that opens with anything but the
// v1 preface — here the first bytes of a gob stream, what every peer
// before wire format v1 sent — ends the session with stream.ErrWireVersion
// and is told why in an error frame; nothing hangs and nothing panics.
func TestServiceRefusesForeignWire(t *testing.T) {
	RegisterServiceWire()
	netw := buildNet(t)
	c2s1, s2c1 := net.Pipe()
	c2s2, s2c2 := net.Pipe()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ServeSessionConfig(ctx, stream.NewTCPEdge(s2c1), stream.NewTCPEdge(c2s2), netw, SessionConfig{Factor: 1000, MaxWorkers: 4})
	}()
	go c2s1.Write([]byte{0x37, 0xff, 0x81, 0x03, 0x01, 0x01, 0x09, 'w', 'i', 'r', 'e', 'F', 'r', 'a', 'm', 'e'})
	reply, err := stream.NewTCPEdge(s2c2).Recv(ctx)
	if err != nil || !strings.Contains(reply.Err, "unsupported wire version") {
		t.Errorf("peer received %+v, %v; want the version error", reply, err)
	}
	if err := <-serveErr; !errors.Is(err, stream.ErrWireVersion) {
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
// architecture whose linear weights are zeroed — proving the data
// provider never depends on the vendor's parameters.
func TestDataProviderNeedsNoWeights(t *testing.T) {
	k := key(t)
	netw := buildNet(t)
	skeleton := netw.Clone()
	for _, l := range skeleton.Layers {
		if fc, ok := l.(*nn.FC); ok {
			fc.W.Fill(0)
			fc.B.Fill(0)
		}
	}
	dp, err := BuildDataProvider(skeleton, k, Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Pair the skeleton-built data provider with the real model
	// provider and run a full inference.
	mp, err := BuildModelProvider(netw, &k.PublicKey, Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float64{0.4, -0.2, 1.0, 0.3}, 4)
	env, err := dp.EncryptMetered(1, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < dp.Stages(); r++ {
		env, _, err = mp.ProcessLinearMetered(r, env, nil)
		if err != nil {
			t.Fatal(err)
		}
		env, err = dp.ProcessNonLinearMetered(r, env, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	want, _ := netw.Forward(x)
	if !tensor.AllClose(want, env.Result, 1e-2) {
		t.Error("skeleton-built data provider produced wrong result")
	}
}
