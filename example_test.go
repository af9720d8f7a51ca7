package ppstream_test

import (
	"fmt"
	"log"
	mathrand "math/rand"

	"ppstream"
	"ppstream/internal/nn"
)

// Example demonstrates the minimal privacy-preserving inference flow:
// generate the data provider's key, build the engine, infer.
func Example() {
	r := mathrand.New(mathrand.NewSource(1))
	net, err := nn.NewNetwork("demo", ppstream.Shape{2},
		nn.NewFC("fc1", 2, 4, r),
		nn.NewReLU("relu"),
		nn.NewFC("fc2", 4, 2, r),
		nn.NewSoftMax("softmax"),
	)
	if err != nil {
		log.Fatal(err)
	}
	key, err := ppstream.GenerateKey(256) // demo size; production uses 2048
	if err != nil {
		log.Fatal(err)
	}
	eng, err := ppstream.NewEngine(net, key, ppstream.Options{Factor: 1000})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	x, err := ppstream.TensorFromSlice([]float64{0.5, -1.25}, 2)
	if err != nil {
		log.Fatal(err)
	}
	private, _, err := eng.InferOne(1, x)
	if err != nil {
		log.Fatal(err)
	}
	plain, err := net.Forward(x)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("private prediction matches plaintext:", ppstream.ArgMax(private) == ppstream.ArgMax(plain))
	// Output: private prediction matches plaintext: true
}

// ExampleMeasureLeakage quantifies what an obfuscated tensor still
// reveals (the paper's Exp#5 metric).
func ExampleMeasureLeakage() {
	x := ppstream.NewTensor(256)
	r := mathrand.New(mathrand.NewSource(2))
	for i := range x.Data() {
		x.Data()[i] = r.NormFloat64()
	}
	dcor, err := ppstream.MeasureLeakage(x, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("leakage strictly between 0 and 1:", dcor > 0 && dcor < 0.5)
	// Output: leakage strictly between 0 and 1: true
}

// ExampleModels lists the paper's Table III registry.
func ExampleModels() {
	for _, spec := range ppstream.Models()[:3] {
		fmt.Println(spec.Name, spec.Arch)
	}
	// Output:
	// Breast 3FC
	// Heart 3FC
	// Cardio 3FC
}
