package core

import (
	"context"
	"crypto/rand"
	mathrand "math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppstream/internal/nn"
	"ppstream/internal/paillier"
	"ppstream/internal/protocol"
	"ppstream/internal/tensor"
)

var (
	keyOnce sync.Once
	testKey *paillier.PrivateKey
)

func key(t testing.TB) *paillier.PrivateKey {
	keyOnce.Do(func() {
		k, err := paillier.GenerateKey(rand.Reader, 256)
		if err != nil {
			t.Fatalf("GenerateKey: %v", err)
		}
		testKey = k
	})
	return testKey
}

func smallNet(t testing.TB) *nn.Network {
	r := mathrand.New(mathrand.NewSource(44))
	net, err := nn.NewNetwork("core-test", tensor.Shape{4},
		nn.NewFC("fc1", 4, 6, r),
		nn.NewReLU("relu1"),
		nn.NewFC("fc2", 6, 3, r),
		nn.NewSoftMax("softmax"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func randInputs(n int) []*tensor.Dense {
	r := mathrand.New(mathrand.NewSource(55))
	out := make([]*tensor.Dense, n)
	for i := range out {
		x := tensor.Zeros(4)
		for j := range x.Data() {
			x.Data()[j] = r.NormFloat64()
		}
		out[i] = x
	}
	return out
}

func TestTopology(t *testing.T) {
	topo := Topology{ModelServers: 2, DataServers: 1, CoresPerServer: 4}
	servers := topo.Servers()
	if len(servers) != 3 {
		t.Fatalf("%d servers", len(servers))
	}
	if !servers[0].Model || servers[2].Model {
		t.Error("server typing wrong")
	}
	if topo.TotalCores() != 12 {
		t.Errorf("TotalCores %d", topo.TotalCores())
	}
}

func TestNewEngineValidation(t *testing.T) {
	k := key(t)
	net := smallNet(t)
	if _, err := NewEngine(net, k, Options{}); err == nil {
		t.Error("missing factor accepted")
	}
}

// TestNewEngineFailureLeaksNoGoroutines: a NewEngine that fails after it
// started the model side's blinding pool (here in backend planning, on an
// unknown profile) stops the pool's fill worker before it returns.
func TestNewEngineFailureLeaksNoGoroutines(t *testing.T) {
	k := key(t)
	net := smallNet(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := NewEngine(net, k, Options{Factor: 1000, Profile: "bogus"}); err == nil {
			t.Fatal("unknown profile accepted")
		}
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d over 20 failed NewEngine calls", before, after)
	}
}

func TestEngineInferOneMatchesPlain(t *testing.T) {
	k := key(t)
	net := smallNet(t)
	eng, err := NewEngine(net, k, Options{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	x := randInputs(1)[0]
	want, _ := net.Forward(x)
	got, lat, err := eng.InferOne(1, x)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Error("no latency measured")
	}
	if !tensor.AllClose(want, got, 1e-2) {
		t.Errorf("engine result diverges: %v vs %v", got.Data(), want.Data())
	}
}

func TestEngineStreamingMatchesPlain(t *testing.T) {
	k := key(t)
	net := smallNet(t)
	eng, err := NewEngine(net, k, Options{
		Factor:      1000,
		Topology:    Topology{ModelServers: 1, DataServers: 1, CoresPerServer: 2},
		LoadBalance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	inputs := randInputs(6)
	results, stats, err := eng.InferStream(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 6 || stats.Makespan <= 0 || stats.EffectiveLatency <= 0 {
		t.Errorf("stats %+v", stats)
	}
	if stats.FirstLatency > stats.Makespan {
		t.Error("first latency exceeds makespan")
	}
	for i, x := range inputs {
		want, _ := net.Forward(x)
		if results[i] == nil {
			t.Fatalf("missing result %d", i)
		}
		if tensor.ArgMax(want) != tensor.ArgMax(results[i]) {
			t.Errorf("request %d prediction differs", i)
		}
	}
}

func TestEngineWithAllFeatures(t *testing.T) {
	k := key(t)
	r := mathrand.New(mathrand.NewSource(66))
	p := tensor.ConvParams{InC: 1, InH: 4, InW: 4, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv, err := nn.NewConv("conv", p, r)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewNetwork("conv-net", tensor.Shape{1, 4, 4},
		conv,
		nn.NewReLU("relu"),
		nn.NewFlatten("fl"),
		nn.NewFC("fc", 32, 3, r),
		nn.NewSoftMax("sm"),
	)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(net, k, Options{
		Factor:          1000,
		Topology:        Topology{ModelServers: 2, DataServers: 1, CoresPerServer: 2},
		LoadBalance:     true,
		TensorPartition: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	x := tensor.Zeros(1, 4, 4)
	for i := range x.Data() {
		x.Data()[i] = float64(i) / 16
	}
	want, _ := net.Forward(x)
	got, _, err := eng.InferOne(1, x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(want, got, 1e-2) {
		t.Errorf("full-featured engine diverges: %v vs %v", got.Data(), want.Data())
	}
	// The plan must satisfy the allocation constraints.
	if eng.Plan == nil || len(eng.Plan.Threads) != len(eng.Layers) {
		t.Error("plan missing")
	}
}

// TestEngineKeepsNoFloatNetwork: an engine serves the quantized form of
// its network, so once NewEngine returns nothing it keeps reaches the
// float network it was built from. With the caller's references dropped,
// fc1's weight tensor is collected, and Submit still returns the reference
// walk's outputs bit for bit.
func TestEngineKeepsNoFloatNetwork(t *testing.T) {
	var collected atomic.Bool
	eng, err := func() (*Engine, error) {
		net := smallNet(t)
		runtime.SetFinalizer(net.Layers[0].(*nn.FC).W, func(*tensor.Dense) { collected.Store(true) })
		return NewEngine(net, key(t), Options{Factor: 1000})
	}()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := eng.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); !collected.Load() && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if !collected.Load() {
		t.Error("fc1's float weights are still reachable from the engine")
	}
	ref, err := protocol.Build(smallNet(t), key(t), protocol.Config{Factor: 1000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range randInputs(3) {
		want, err := ref.Infer(uint64(i+1), x)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := eng.Submit(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(got, want, 0) {
			t.Errorf("request %d: engine %v, reference walk %v", i, got.Data(), want.Data())
		}
	}
}
