// Distributed: runs the two providers as separate services connected by
// real TCP sockets on loopback, exchanging wire-format v1 envelopes —
// the deployment shape of the paper's testbed. The model-provider
// service owns the weights and the obfuscation state; the data-provider
// client owns the private key and the raw inputs. Only ciphertexts cross
// the wire.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"ppstream"
	"ppstream/internal/nn"
	"ppstream/internal/protocol"
	"ppstream/internal/stream"
)

func main() {
	protocol.RegisterWire()

	// Shared setup: in a real deployment the parties agree on the model
	// architecture and scaling factor; weights stay with the vendor.
	rng := rand.New(rand.NewSource(7))
	net, err := nn.NewNetwork("distributed-demo", ppstream.Shape{8},
		nn.NewFC("fc1", 8, 12, rng),
		nn.NewReLU("relu1"),
		nn.NewFC("fc2", 12, 4, rng),
		nn.NewSoftMax("softmax"),
	)
	if err != nil {
		log.Fatal(err)
	}
	key, err := ppstream.GenerateKey(512)
	if err != nil {
		log.Fatal(err)
	}
	const factor = 10000
	proto, err := ppstream.BuildProtocol(net, key, factor, 2)
	if err != nil {
		log.Fatal(err)
	}

	// Wire topology: client -> model server (requests), model server ->
	// client (responses). Each round trips the same two sockets.
	toModel, modelAddr, err := stream.ListenEdge("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	toData, dataAddr, err := stream.ListenEdge("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model provider listening on %s, data provider on %s\n", modelAddr, dataAddr)

	ctx := context.Background()
	rounds := proto.Rounds()

	// ---- Model provider service (separate goroutine = separate box).
	go func() {
		replies, err := stream.DialEdge(dataAddr)
		if err != nil {
			log.Fatalf("model provider: %v", err)
		}
		pk := proto.Model.PublicKey()
		for {
			msg, err := toModel.Recv(ctx)
			if err != nil {
				return // client closed
			}
			w, ok := msg.Payload.(*protocol.WireEnvelope)
			if !ok {
				log.Fatalf("model provider: unexpected payload %T", msg.Payload)
			}
			env, err := protocol.FromWire(w, pk)
			if err != nil {
				log.Fatalf("model provider: malformed frame: %v", err)
			}
			round := int(msg.Seq) // client tags the round in Seq
			out, _, err := proto.Model.ProcessLinearMetered(round, env, nil)
			if err != nil {
				log.Fatalf("model provider: round %d: %v", round, err)
			}
			reply, err := protocol.ToWire(out)
			if err != nil {
				log.Fatalf("model provider: %v", err)
			}
			if err := replies.Send(ctx, &stream.Message{Seq: msg.Seq, Payload: reply}); err != nil {
				log.Fatalf("model provider: send: %v", err)
			}
		}
	}()

	// ---- Data provider client.
	requests, err := stream.DialEdge(modelAddr)
	if err != nil {
		log.Fatal(err)
	}

	x := ppstream.NewTensor(8)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	plain, _ := net.Forward(x)

	start := time.Now()
	env, err := proto.Data.EncryptMetered(1, x, nil)
	if err != nil {
		log.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		// Send the encrypted tensor to the model provider over TCP.
		w, err := protocol.ToWire(env)
		if err != nil {
			log.Fatal(err)
		}
		if err := requests.Send(ctx, &stream.Message{Seq: uint64(r), Payload: w}); err != nil {
			log.Fatal(err)
		}
		// Receive the (obfuscated) linear-stage result.
		msg, err := toData.Recv(ctx)
		if err != nil {
			log.Fatal(err)
		}
		reply, ok := msg.Payload.(*protocol.WireEnvelope)
		if !ok {
			log.Fatalf("data provider: unexpected payload %T", msg.Payload)
		}
		env, err = protocol.FromWire(reply, proto.Model.PublicKey())
		if err != nil {
			log.Fatal(err)
		}
		// Decrypt, run the non-linear stage, re-encrypt (or finish).
		env, err = proto.Data.ProcessNonLinearMetered(r, env, nil)
		if err != nil {
			log.Fatal(err)
		}
	}
	requests.CloseSend()
	latency := time.Since(start)

	if env.Result == nil {
		log.Fatal("protocol ended without a result")
	}
	fmt.Printf("distributed private inference over TCP: class %d (plain reference %d)\n",
		ppstream.ArgMax(env.Result), ppstream.ArgMax(plain))
	fmt.Printf("end-to-end latency across %d rounds: %v\n", rounds, latency)
	fmt.Printf("output: %.4f vs plain %.4f\n", env.Result.Data(), plain.Data())
}
