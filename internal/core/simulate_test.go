package core

import "testing"

func TestSimStagesAndSimulate(t *testing.T) {
	k := key(t)
	net := smallNet(t)
	eng, err := NewEngine(net, k, Options{Factor: 1000, LoadBalance: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stages, err := eng.SimStages()
	if err != nil {
		t.Fatal(err)
	}
	// encrypt + every merged stage
	if len(stages) != len(eng.Layers)+1 {
		t.Fatalf("%d sim stages for %d merged layers", len(stages), len(eng.Layers))
	}
	if stages[0].Name != "encrypt" || stages[0].Base <= 0 {
		t.Errorf("encrypt stage %+v", stages[0])
	}
	// linear stages carry communication accounting
	li := 0
	for i, l := range eng.Layers {
		s := stages[i+1]
		if l.Linear {
			if s.CommElems <= 0 {
				t.Errorf("linear stage %s has no comm accounting", s.Name)
			}
			li++
		}
		if s.Threads != eng.Plan.Threads[i] {
			t.Errorf("stage %s threads %d != plan %d", s.Name, s.Threads, eng.Plan.Threads[i])
		}
	}
	res, err := eng.Simulate(16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Effective <= 0 || res.First < res.Effective {
		t.Errorf("simulation result %+v", res)
	}
	if res.Makespan < res.First {
		t.Error("makespan below first-request latency")
	}
}

// TestSimulatePartitioningReducesComm: the same engine with partitioning
// carries less communication in its stage models.
func TestSimulatePartitioningReducesComm(t *testing.T) {
	k := key(t)
	net := smallNet(t)
	without, err := NewEngine(net, k, Options{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer without.Close()
	with, err := NewEngine(net, k, Options{Factor: 1000, TensorPartition: true})
	if err != nil {
		t.Fatal(err)
	}
	defer with.Close()
	sa, err := without.SimStages()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := with.SimStages()
	if err != nil {
		t.Fatal(err)
	}
	var commA, commB int
	for i := range sa {
		commA += sa[i].CommElems
		commB += sb[i].CommElems
	}
	if commB >= commA {
		t.Errorf("partitioning comm %d not below baseline %d", commB, commA)
	}
}

func TestEngineReport(t *testing.T) {
	k := key(t)
	net := smallNet(t)
	eng, err := NewEngine(net, k, Options{Factor: 1000, LoadBalance: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	report, err := eng.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(report) != len(eng.Layers) {
		t.Fatalf("report covers %d stages", len(report))
	}
	for _, r := range report {
		if r.Threads < 1 || r.Server == "" || r.Name == "" {
			t.Errorf("incomplete report row %+v", r)
		}
		if r.Linear && (r.CommWithPart <= 0 || r.CommWithoutPart < r.CommWithPart) {
			t.Errorf("linear comm accounting wrong: %+v", r)
		}
		if !r.Linear && r.CommWithPart != 0 {
			t.Errorf("non-linear stage has comm: %+v", r)
		}
	}
}

// TestEncryptionsRunOnPlannedThreads: the data provider encrypts round r's
// input on the threads the allocation gave the non-linear stage that
// StageCosts charges those encryptions to — stage r−1, and the first
// non-linear stage for the raw input — and SimStages prices the input
// encryption at that same count.
func TestEncryptionsRunOnPlannedThreads(t *testing.T) {
	eng, err := NewEngine(smallNet(t), key(t), Options{
		Factor: 1000, LoadBalance: true,
		Topology: Topology{ModelServers: 1, DataServers: 1, CoresPerServer: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stages, err := eng.SimStages()
	if err != nil {
		t.Fatal(err)
	}
	dp := eng.Protocol.Data
	first := eng.Plan.Threads[1]
	if first < 2 {
		t.Fatalf("the plan gives the first non-linear stage %d thread(s); the check needs more", first)
	}
	if got := dp.EncryptThreads(0); got != first || stages[0].Threads != first {
		t.Errorf("input encrypted on %d threads, simulated on %d; the plan gives its stage %d", got, stages[0].Threads, first)
	}
	for r := 1; r < eng.Protocol.Rounds(); r++ {
		if got, want := dp.EncryptThreads(r), eng.Plan.Threads[2*r-1]; got != want {
			t.Errorf("round %d input encrypted on %d threads, the plan gives %s %d", r, got, eng.Layers[2*r-1].Name, want)
		}
	}
}
