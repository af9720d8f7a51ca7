package protocol

import (
	"context"
	mathrand "math/rand"
	"testing"
	"time"

	"ppstream/internal/nn"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// TestProtocolOverTCP runs the full collaborative workflow with the two
// providers in separate goroutines connected by real TCP sockets and
// gob-encoded wire envelopes — the integration shape of the paper's
// distributed deployment.
func TestProtocolOverTCP(t *testing.T) {
	k := key(t)
	net := buildNet(t)
	proto, err := Build(net, k, Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}

	toModel, modelAddr, err := stream.ListenEdge("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	toData, dataAddr, err := stream.ListenEdge("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Model provider service.
	errCh := make(chan error, 1)
	go func() {
		replies, err := stream.DialEdge(dataAddr)
		if err != nil {
			errCh <- err
			return
		}
		pk := &k.PublicKey
		for {
			msg, err := toModel.Recv(ctx)
			if err != nil {
				errCh <- nil // closed: normal shutdown
				return
			}
			w, ok := msg.Payload.(*WireEnvelope)
			if !ok {
				errCh <- err
				return
			}
			env, err := FromWire(w, pk)
			if err != nil {
				errCh <- err
				return
			}
			out, _, err := proto.Model.ProcessLinearMetered(int(msg.Seq), env, nil)
			if err != nil {
				errCh <- err
				return
			}
			reply, err := ToWire(out)
			if err != nil {
				errCh <- err
				return
			}
			if err := replies.Send(ctx, &stream.Message{Seq: msg.Seq, Payload: reply}); err != nil {
				errCh <- err
				return
			}
		}
	}()

	requests, err := stream.DialEdge(modelAddr)
	if err != nil {
		t.Fatal(err)
	}
	r := mathrand.New(mathrand.NewSource(101))
	x := tensor.Zeros(4)
	for i := range x.Data() {
		x.Data()[i] = r.NormFloat64()
	}
	env, err := proto.Data.EncryptMetered(1, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < proto.Rounds(); round++ {
		w, err := ToWire(env)
		if err != nil {
			t.Fatal(err)
		}
		if err := requests.Send(ctx, &stream.Message{Seq: uint64(round), Payload: w}); err != nil {
			t.Fatal(err)
		}
		msg, err := toData.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		reply, ok := msg.Payload.(*WireEnvelope)
		if !ok {
			t.Fatalf("unexpected payload %T", msg.Payload)
		}
		env, err = FromWire(reply, &k.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		env, err = proto.Data.ProcessNonLinearMetered(round, env, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	requests.CloseSend()
	if err := <-errCh; err != nil {
		t.Fatalf("model provider service: %v", err)
	}
	if env.Result == nil {
		t.Fatal("no result")
	}
	want, _ := net.Forward(x)
	if !tensor.AllClose(want, env.Result, 1e-2) {
		t.Errorf("TCP protocol diverges: %v vs %v", env.Result.Data(), want.Data())
	}
}

// TestMixedLayerProtocol runs a network containing a mixed
// (ScaledSigmoid) layer end-to-end, exercising the IV-B decomposition
// inside the protocol.
func TestMixedLayerProtocol(t *testing.T) {
	k := key(t)
	r := mathrand.New(mathrand.NewSource(102))
	ss := nn.NewScaledSigmoid("mixed", 5)
	for i := range ss.Scale.Data() {
		ss.Scale.Data()[i] = 0.5 + r.Float64()
	}
	net, err := nn.NewNetwork("mixed-net", tensor.Shape{4},
		nn.NewFC("fc1", 4, 5, r),
		ss,
		nn.NewFC("fc2", 5, 3, r),
		nn.NewSoftMax("sm"),
	)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := Build(net, k, Config{Factor: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if proto.Rounds() != 2 {
		t.Fatalf("mixed net rounds %d, want 2 (fc1+scale | sigmoid | fc2 | softmax)", proto.Rounds())
	}
	x := tensor.MustFromSlice([]float64{0.2, -0.7, 1.1, 0.4}, 4)
	want, _ := net.Forward(x)
	got, err := proto.Infer(1, x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(want, got, 5e-3) {
		t.Errorf("mixed-layer protocol diverges: %v vs %v", got.Data(), want.Data())
	}
}

// TestConcurrentRequests checks the model provider's per-request
// obfuscation state isolates interleaved requests.
func TestConcurrentRequests(t *testing.T) {
	k := key(t)
	net := buildNet(t)
	proto, err := Build(net, k, Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	r := mathrand.New(mathrand.NewSource(103))
	const n = 4
	inputs := make([]*tensor.Dense, n)
	envs := make([]*Envelope, n)
	for i := range inputs {
		x := tensor.Zeros(4)
		for j := range x.Data() {
			x.Data()[j] = r.NormFloat64()
		}
		inputs[i] = x
		env, err := proto.Data.EncryptMetered(uint64(i), x, nil)
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = env
	}
	// Interleave: all requests round 0, then all round 1 — the state
	// map must keep each request's permutations separate.
	for round := 0; round < proto.Rounds(); round++ {
		for i := range envs {
			out, _, err := proto.Model.ProcessLinearMetered(round, envs[i], nil)
			if err != nil {
				t.Fatal(err)
			}
			envs[i], err = proto.Data.ProcessNonLinearMetered(round, out, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range envs {
		want, _ := net.Forward(inputs[i])
		if envs[i].Result == nil {
			t.Fatalf("request %d has no result", i)
		}
		if !tensor.AllClose(want, envs[i].Result, 1e-2) {
			t.Errorf("request %d diverges under interleaving", i)
		}
	}
}
