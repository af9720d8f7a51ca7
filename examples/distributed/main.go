// Distributed: runs the two providers as separate services connected by a
// real TCP socket on loopback, speaking the wire format at
// stream.WireVersion — the deployment shape of the paper's testbed and of
// cmd/ppserver / cmd/ppclient. The model-provider service owns the weights
// and the obfuscation state and only ever sees the client's public key;
// the data-provider client owns the private key and the raw inputs. Only
// ciphertexts cross the wire.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	gonet "net"
	"time"

	"ppstream"
	"ppstream/internal/nn"
	"ppstream/internal/protocol"
	"ppstream/internal/stream"
)

func main() {
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
	const factor = 10000
	ctx := context.Background()

	// ---- Model provider service (separate goroutine = separate box): the
	// network and nothing else; each client's public key arrives in its
	// Hello.
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model provider listening on %s\n", ln.Addr())
	served := make(chan error, 1)
	go func() {
		served <- protocol.Serve(ctx, ln, net, protocol.SessionConfig{Factor: factor, MaxWorkers: 2})
	}()

	// ---- Data provider client: its own key, the agreed architecture.
	key, err := ppstream.GenerateKey(512)
	if err != nil {
		log.Fatal(err)
	}
	conn, err := gonet.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	clientEdge := stream.NewTCPEdge(conn)
	client, err := protocol.NewClientOpts(ctx, clientEdge, clientEdge, net, key, factor,
		protocol.ClientOptions{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}

	x := ppstream.NewTensor(8)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	plain, _ := net.Forward(x)

	start := time.Now()
	out, err := client.Infer(ctx, x)
	if err != nil {
		log.Fatal(err)
	}
	latency := time.Since(start)
	client.Close()
	ln.Close()
	if err := <-served; err != nil {
		log.Fatalf("model provider: %v", err)
	}

	fmt.Printf("distributed private inference over TCP: class %d (plain reference %d)\n",
		ppstream.ArgMax(out), ppstream.ArgMax(plain))
	fmt.Printf("end-to-end latency: %v\n", latency)
	fmt.Printf("output: %.4f vs plain %.4f\n", out.Data(), plain.Data())
}
