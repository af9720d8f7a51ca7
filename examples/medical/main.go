// Medical: the paper's motivating healthcare scenario. A hospital (data
// provider) holds patient records; a diagnostics vendor (model provider)
// holds a proprietary heart-disease model. Neither learns the other's
// secrets: records travel encrypted, model weights never leave the
// vendor, and the tensors the hospital decrypts for the non-linear steps
// arrive position-permuted.
//
//	go run ./examples/medical
package main

import (
	"context"
	"fmt"
	"log"

	"ppstream"
)

func main() {
	// Train the vendor's model on the synthetic Heart dataset
	// (Table III row: 13 clinical features, binary diagnosis).
	spec, err := ppstream.ModelByName("Heart")
	if err != nil {
		log.Fatal(err)
	}
	net, ds, err := ppstream.PrepareModel(spec)
	if err != nil {
		log.Fatal(err)
	}
	testAcc, _ := net.Accuracy(ds.TestX, ds.TestY)
	fmt.Printf("vendor model: %s, test accuracy %.1f%%\n", spec.Arch, testAcc*100)

	// The hospital's key pair. The vendor only ever receives the public
	// key.
	key, err := ppstream.GenerateKey(512)
	if err != nil {
		log.Fatal(err)
	}

	sel, err := ppstream.SelectScalingFactor(net, ds.TrainX, ds.TrainY)
	if err != nil {
		log.Fatal(err)
	}

	eng, err := ppstream.NewEngine(net, key, ppstream.Options{
		Factor: sel.Factor,
		Topology: ppstream.Topology{
			ModelServers:   spec.ModelServers,
			DataServers:    spec.DataServers,
			CoresPerServer: 4,
		},
		LoadBalance: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Stream a batch of patient records through the pipeline.
	patients := ds.TestX[:10]
	results, stats, err := eng.InferStream(context.Background(), patients)
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i, out := range results {
		pred := ppstream.ArgMax(out)
		if pred == ds.TestY[i] {
			correct++
		}
		diagnosis := "healthy"
		if pred == 1 {
			diagnosis = "heart disease"
		}
		fmt.Printf("patient %2d: %-13s (P=%.3f)\n", i+1, diagnosis, out.Data()[pred])
	}
	fmt.Printf("\nbatch of %d: %d/%d match plain inference labels\n", stats.Requests, correct, len(patients))
	fmt.Printf("first-record latency %v, steady-state %v/record\n", stats.FirstLatency, stats.EffectiveLatency)

	// How much do the permuted tensors leak? (Exp#5's metric.)
	sample := ds.TestX[0]
	dcor, err := ppstream.MeasureLeakage(sample, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("obfuscation leakage on a %d-feature record: distance correlation %.3f (1 = no protection)\n",
		sample.Size(), dcor)
}
