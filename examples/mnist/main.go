// MNIST: runs the paper's MNIST-2 model (1Conv+2FC) through the full
// PP-Stream machinery and shows the system-level features at work: the
// merged primitive layers, the estimated stage times, the optimal
// allocation plan versus the even baseline, the tensor-partitioning communication
// savings, and the modelled deployment latency.
//
//	go run ./examples/mnist
package main

import (
	"fmt"
	"log"

	"ppstream"
	"ppstream/internal/alloc"
	"ppstream/internal/nn"
)

func main() {
	spec, err := ppstream.ModelByName("MNIST-2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training MNIST-2 (1Conv+2FC) on synthetic digits…")
	net, ds, err := ppstream.PrepareModel(spec)
	if err != nil {
		log.Fatal(err)
	}
	acc, _ := net.Accuracy(ds.TestX, ds.TestY)
	fmt.Printf("test accuracy: %.1f%%\n\n", acc*100)

	// Show the operation encapsulation (Section IV-B).
	merged, err := nn.Merge(net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("merged primitive layers (stage per row):")
	for _, m := range merged {
		fmt.Printf("  %-40s in %-12v out %v\n", m.Name(), m.InShape, m.OutShape)
	}

	key, err := ppstream.GenerateKey(512)
	if err != nil {
		log.Fatal(err)
	}
	sel, err := ppstream.SelectScalingFactor(net, ds.TrainX[:64], ds.TrainY[:64])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nscaling factor: 10^%d\n", sel.Exponent)

	eng, err := ppstream.NewEngine(net, key, ppstream.Options{
		Factor:          sel.Factor,
		Topology:        ppstream.Topology{ModelServers: spec.ModelServers, DataServers: spec.DataServers, CoresPerServer: 6},
		LoadBalance:     true,
		TensorPartition: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// The load-balanced plan vs the even split (Exp#3's comparison).
	even, err := alloc.Even(eng.Layers, eng.Servers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nload-balanced resource allocation (Section IV-C):")
	fmt.Printf("  %-40s %10s  %8s  %8s\n", "stage", "T_i", "best y_i", "even y_i")
	for i, l := range eng.Layers {
		fmt.Printf("  %-40s %9.1fms  %8d  %8d\n", l.Name, l.Time*1000, eng.Plan.Threads[i], even.Threads[i])
	}
	fmt.Printf("  imbalance objective: best %.4f vs even %.4f (exact=%v)\n",
		eng.Plan.Objective, even.Objective, eng.Plan.Exact)

	// Tensor partitioning communication volumes (Section IV-D).
	fmt.Println("\ntensor partitioning (Section IV-D), per request:")
	li := 0
	for i, l := range eng.Layers {
		if !l.Linear {
			continue
		}
		with, without, err := eng.Protocol.Model.StageComm(li, eng.Plan.Threads[i])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-40s %9d elems with partitioning, %9d without (%.1f%% saved)\n",
			l.Name, with, without, 100*(1-float64(with)/float64(without)))
		li++
	}

	// One real private inference + the modelled streaming deployment.
	out, latency, err := eng.InferOne(1, ds.TestX[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprivate inference: digit %d (true %d), sequential latency %v\n",
		ppstream.ArgMax(out), ds.TestY[0], latency)
	sim, err := eng.Simulate(16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("modelled %d-core streaming deployment: %v/request steady-state (first %v, bottleneck %v)\n",
		(spec.ModelServers+spec.DataServers)*6, sim.Effective, sim.First, sim.Bottleneck)
}
