package core

import (
	"fmt"
	"testing"
	"time"

	"ppstream/internal/alloc"
	"ppstream/internal/backend"
	"ppstream/internal/models"
	"ppstream/internal/nn"
	"ppstream/internal/paillier"
	"ppstream/internal/protocol"
	"ppstream/internal/tensor"
)

// benchEngine builds the engine the conv-engine benchmark workload runs
// (bench/serve.go), on a Table III model's untrained weights at factor 100.
func benchEngine(t *testing.T, model string) (*Engine, *nn.Network) {
	t.Helper()
	spec, err := models.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	net, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(net, key(t), Options{
		Factor:          100,
		Topology:        Topology{ModelServers: 1, DataServers: 1, CoresPerServer: 2},
		LoadBalance:     true,
		TensorPartition: true,
		Window:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng, net
}

// TestCountPlanPinsConvEngine: the count-priced stage costs plan the
// conv-engine workload exactly as offline profiling did, and keep that
// plan when any one unit cost is off by a quarter either way.
func TestCountPlanPinsConvEngine(t *testing.T) {
	eng, _ := benchEngine(t, "MNIST-2")
	const threads, servers = "[2 2 1 1 1 1]", "[0 1 0 1 0 1]"
	if got := fmt.Sprint(eng.Plan.Threads); got != threads {
		t.Errorf("threads %s, want %s", got, threads)
	}
	if got := fmt.Sprint(eng.Plan.ServerOf); got != servers {
		t.Errorf("servers %s, want %s", got, servers)
	}
	_, counts := eng.Protocol.StageCosts()
	units, err := backend.MeasureUnitCosts(key(t).Bits())
	if err != nil {
		t.Fatal(err)
	}
	fields := func(u *paillier.UnitCosts) []*float64 {
		return []*float64{&u.MulMod, &u.ModInverse, &u.Encrypt, &u.Decrypt, &u.Blinding}
	}
	for i := range fields(&units) {
		for _, f := range []float64{0.75, 1.25} {
			u := units
			*fields(&u)[i] *= f
			layers := append([]alloc.Layer(nil), eng.Layers...)
			for j := range layers {
				layers[j].Time = u.Price(counts[j])
			}
			plan, err := alloc.Solve(layers, eng.Servers)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(plan.Threads) != threads || fmt.Sprint(plan.ServerOf) != servers {
				t.Errorf("unit cost %d ×%v: plan threads %v servers %v, want %s %s", i, f, plan.Threads, plan.ServerOf, threads, servers)
			}
		}
	}
}

// TestEstimatedStageTimesMatchAWalk: on MNIST-2 and Heart, a measured
// single-threaded walk orders every two stages (the encryption included)
// whose estimated times are over 2× apart as the estimates do, and its
// stage times plan the engine exactly as the estimates do. Both checks
// compare times from one walk, or from one pricing, with each other, so a
// host that slows between the pricing and the walk moves neither. A walk
// that disorders a pair walks again, up to walkRetries more times, each
// stage keeping its fastest time: load from other processes only slows a
// stage, so a disorder it caused goes with a faster walk, while one the
// estimates caused stays.
func TestEstimatedStageTimesMatchAWalk(t *testing.T) {
	const walkRetries = 5
	for _, model := range []string{"MNIST-2", "Heart"} {
		eng, net := benchEngine(t, model)
		predicted := []float64{eng.EncryptTime}
		names := []string{"encrypt"}
		for _, l := range eng.Layers {
			predicted = append(predicted, l.Time)
			names = append(names, l.Name)
		}
		// disordered lists the pairs estimated over 2× apart that walked
		// the other way.
		disordered := func(walked []float64) (pairs [][2]int) {
			for i, p := range predicted {
				for j, q := range predicted {
					if p > 2*q && walked[i] <= walked[j] {
						pairs = append(pairs, [2]int{i, j})
					}
				}
			}
			return pairs
		}
		walked := walkTimes(t, net, 3)
		for retry := 0; retry < walkRetries && len(disordered(walked)) > 0; retry++ {
			for i, s := range walkTimes(t, net, 3) {
				walked[i] = min(walked[i], s)
			}
		}
		for i, p := range predicted {
			t.Logf("%s %s: estimated %.3g s, walked %.3g s", model, names[i], p, walked[i])
		}
		for _, ij := range disordered(walked) {
			i, j := ij[0], ij[1]
			t.Errorf("%s: %s is estimated at %.3g s and %s at %.3g s, but a walk took %.3g s and %.3g s",
				model, names[i], predicted[i], names[j], predicted[j], walked[i], walked[j])
		}
		layers := append([]alloc.Layer(nil), eng.Layers...)
		for i := range layers {
			layers[i].Time = walked[1+i]
		}
		plan, err := alloc.Solve(layers, eng.Servers)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(plan.Threads, plan.ServerOf) != fmt.Sprint(eng.Plan.Threads, eng.Plan.ServerOf) {
			t.Errorf("%s: walked times plan threads %v servers %v, estimates plan %v %v",
				model, plan.Threads, plan.ServerOf, eng.Plan.Threads, eng.Plan.ServerOf)
		}
	}
}

// walkTimes times one request through the encryption and every merged
// stage of net, single-threaded with no blinding pool — the pass the
// counts describe — and returns each stage's fastest time over reps walks.
func walkTimes(t *testing.T, net *nn.Network, reps int) []float64 {
	t.Helper()
	proto, err := protocol.Build(net, key(t), protocol.Config{Factor: 100, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	best := make([]float64, 1+len(proto.StageNames))
	keep := func(i int, start time.Time) {
		if s := time.Since(start).Seconds(); best[i] == 0 || s < best[i] {
			best[i] = s
		}
	}
	x := tensor.Zeros(net.InputShape...)
	for rep := 0; rep < reps; rep++ {
		req := uint64(rep + 1)
		start := time.Now()
		env, err := proto.Data.EncryptMetered(req, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		keep(0, start)
		for r := 0; r < proto.Rounds(); r++ {
			start = time.Now()
			if env, _, err = proto.Model.ProcessLinearMetered(r, env, nil); err != nil {
				t.Fatal(err)
			}
			keep(1+2*r, start)
			start = time.Now()
			if env, err = proto.Data.ProcessNonLinearMetered(r, env, nil); err != nil {
				t.Fatal(err)
			}
			keep(2+2*r, start)
		}
		proto.Model.Forget(req)
	}
	return best
}
