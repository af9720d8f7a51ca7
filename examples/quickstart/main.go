// Quickstart: build a small model, train it on synthetic data, and run
// privacy-preserving inference through the PP-Stream engine.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ppstream"
	"ppstream/internal/nn"
)

func main() {
	// 1. A small classifier: 2 features -> 2 classes. PP-Stream requires
	// the usual shape: linear layers + element-wise activations + a
	// final SoftMax.
	rng := rand.New(rand.NewSource(1))
	net, err := nn.NewNetwork("quickstart", ppstream.Shape{2},
		nn.NewFC("fc1", 2, 8, rng),
		nn.NewReLU("relu"),
		nn.NewFC("fc2", 8, 2, rng),
		nn.NewSoftMax("softmax"),
	)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Train on two Gaussian blobs.
	var xs []*ppstream.Tensor
	var ys []int
	for i := 0; i < 200; i++ {
		c := i % 2
		center := float64(c*4 - 2)
		x := ppstream.NewTensor(2)
		x.Data()[0] = center + rng.NormFloat64()
		x.Data()[1] = center + rng.NormFloat64()
		xs, ys = append(xs, x), append(ys, c)
	}
	cfg := ppstream.DefaultTrainConfig()
	cfg.Epochs = 30
	if err := ppstream.Train(net, xs, ys, cfg); err != nil {
		log.Fatal(err)
	}
	acc, _ := net.Accuracy(xs, ys)
	fmt.Printf("trained: %.1f%% training accuracy\n", acc*100)

	// 3. The data provider generates its Paillier key pair. 512 bits
	// keeps the demo fast; production follows the paper with 2048.
	key, err := ppstream.GenerateKey(512)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Parameter scaling (Exp#1): pick the factor that keeps accuracy.
	sel, err := ppstream.SelectScalingFactor(net, xs, ys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scaling factor: 10^%d (accuracy %.2f%% vs %.2f%%)\n",
		sel.Exponent, sel.ScaledAccuracy*100, sel.OriginalAccuracy*100)

	// 5. Build the engine: price stages, solve the load-balanced
	// allocation, account tensor partitioning's communication.
	eng, err := ppstream.NewEngine(net, key, ppstream.Options{
		Factor:          sel.Factor,
		Topology:        ppstream.Topology{ModelServers: 1, DataServers: 1, CoresPerServer: 2},
		LoadBalance:     true,
		TensorPartition: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// 6. Privacy-preserving inference: the model provider never sees the
	// input, the data provider never sees the weights.
	for i := 0; i < 3; i++ {
		x := xs[i*7]
		out, latency, err := eng.InferOne(uint64(i), x)
		if err != nil {
			log.Fatal(err)
		}
		plain, _ := net.Forward(x)
		fmt.Printf("sample %d: private class %d (plain %d), latency %v, P(class)=%.3f\n",
			i, ppstream.ArgMax(out), ppstream.ArgMax(plain), latency, out.Data()[ppstream.ArgMax(out)])
	}
}
