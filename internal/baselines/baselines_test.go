package baselines

import (
	"crypto/rand"
	mathrand "math/rand"
	"sync"
	"testing"

	"ppstream/internal/garble"
	"ppstream/internal/nn"
	"ppstream/internal/paillier"
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

func fcNet(t testing.TB) *nn.Network {
	r := mathrand.New(mathrand.NewSource(71))
	net, err := nn.NewNetwork("bl-fc", tensor.Shape{4},
		nn.NewFC("fc1", 4, 6, r),
		nn.NewReLU("relu1"),
		nn.NewFC("fc2", 6, 3, r),
		nn.NewSoftMax("sm"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func convNet(t testing.TB) *nn.Network {
	r := mathrand.New(mathrand.NewSource(72))
	p := tensor.ConvParams{InC: 1, InH: 5, InW: 5, OutC: 2, KH: 3, KW: 3, Stride: 2, Pad: 1}
	conv, err := nn.NewConv("c", p, r)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewNetwork("bl-conv", tensor.Shape{1, 5, 5},
		conv,
		nn.NewReLU("relu"),
		nn.NewFlatten("fl"),
		nn.NewFC("fc", 2*3*3, 3, r),
		nn.NewSoftMax("sm"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func sampleInput(shape tensor.Shape, seed int64) *tensor.Dense {
	r := mathrand.New(mathrand.NewSource(seed))
	x := tensor.Zeros(shape...)
	for i := range x.Data() {
		x.Data()[i] = r.NormFloat64() * 0.5
	}
	return x
}

func TestReportedLatencies(t *testing.T) {
	rep := ReportedLatencies()
	if len(rep) != 3 {
		t.Fatalf("%d reported rows, want 3 (Table VII stars)", len(rep))
	}
	want := map[string]float64{"SecureML": 4.88, "CryptoNets": 297.5, "CryptoDL": 320}
	for _, r := range rep {
		if want[r.System] != r.Seconds {
			t.Errorf("%s reported %v, want %v", r.System, r.Seconds, want[r.System])
		}
		if r.Source == "" {
			t.Errorf("%s missing source", r.System)
		}
	}
}

func TestPlainBase(t *testing.T) {
	net := fcNet(t)
	x := sampleInput(net.InputShape, 1)
	out, lat, err := PlainBase(net, x)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := net.Forward(x)
	if !tensor.AllClose(want, out, 0) {
		t.Error("PlainBase diverges from Forward")
	}
	if lat < 0 {
		t.Error("negative latency")
	}
}

func TestCipherBaseMatchesPlain(t *testing.T) {
	k := key(t)
	net := fcNet(t)
	cb, err := NewCipherBase(net, k, 1000)
	if err != nil {
		t.Fatal(err)
	}
	x := sampleInput(net.InputShape, 2)
	out, lat, err := cb.Infer(1, x)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := net.Forward(x)
	if !tensor.AllClose(want, out, 1e-2) {
		t.Errorf("CipherBase %v vs plain %v", out.Data(), want.Data())
	}
	if lat <= 0 {
		t.Error("no latency measured")
	}
}

// TestEzPCMatchesPlain is the key baseline correctness check: the full
// 2PC engine (shares + Beaver triples + garbled-circuit ReLU + OT
// extension) reproduces plain inference.
func TestEzPCMatchesPlain(t *testing.T) {
	net := fcNet(t)
	e, err := NewEzPC(net, 5)
	if err != nil {
		t.Fatal(err)
	}
	x := sampleInput(net.InputShape, 3)
	out, lat, err := e.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := net.Forward(x)
	if !tensor.AllClose(want, out, 0.02) {
		t.Errorf("EzPC %v vs plain %v", out.Data(), want.Data())
	}
	if lat <= 0 {
		t.Error("no latency")
	}
	st := e.Stats()
	if st.GCGates != 6*garble.ReLUANDs {
		t.Errorf("GC gates %d, want %d (ReLU over 6 elements)", st.GCGates, 6*garble.ReLUANDs)
	}
	if st.ExtOTs != 6*64 {
		t.Errorf("ext OTs %d, want %d", st.ExtOTs, 6*64)
	}
	if st.Triples == 0 || st.OpenedWords == 0 {
		t.Error("missing cost accounting")
	}
}

func TestEzPCConvNet(t *testing.T) {
	net := convNet(t)
	e, err := NewEzPC(net, 6)
	if err != nil {
		t.Fatal(err)
	}
	x := sampleInput(net.InputShape, 4)
	out, _, err := e.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := net.Forward(x)
	if !tensor.AllClose(want, out, 0.05) {
		t.Errorf("EzPC conv diverges:\n got %v\nwant %v", out.Data(), want.Data())
	}
	if tensor.ArgMax(want) != tensor.ArgMax(out) {
		t.Error("prediction differs")
	}
}

func TestEzPCRejectsUnsupported(t *testing.T) {
	r := mathrand.New(mathrand.NewSource(73))
	mp, _ := nn.NewNetwork("mp", tensor.Shape{1, 4, 4},
		nn.NewMaxPool("pool", 2, 2),
		nn.NewFlatten("fl"),
		nn.NewFC("fc", 4, 2, r),
		nn.NewSoftMax("sm"),
	)
	if _, err := NewEzPC(mp, 1); err == nil {
		t.Error("MaxPool network accepted")
	}
	midSM, _ := nn.NewNetwork("msm", tensor.Shape{4},
		nn.NewFC("fc", 4, 4, r),
		nn.NewSoftMax("mid"),
		nn.NewFC("fc2", 4, 2, r),
		nn.NewSoftMax("sm"),
	)
	if _, err := NewEzPC(midSM, 1); err == nil {
		t.Error("middle SoftMax accepted")
	}
}

func TestEzPCInputShapeCheck(t *testing.T) {
	net := fcNet(t)
	e, err := NewEzPC(net, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Infer(tensor.Zeros(5)); err == nil {
		t.Error("wrong input shape accepted")
	}
}

// TestEzPCIsSlowerThanPPStreamShape sanity-checks the Table VII shape on
// a tiny model: the EzPC-style engine should cost more protocol machinery
// than the hybrid protocol for the same network. We compare structural
// cost (GC + OT work exists) rather than asserting wall-clock, which is
// environment-dependent.
func TestEzPCIsSlowerThanPPStreamShape(t *testing.T) {
	net := fcNet(t)
	e, err := NewEzPC(net, 9)
	if err != nil {
		t.Fatal(err)
	}
	x := sampleInput(net.InputShape, 6)
	if _, _, err := e.Infer(x); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.GCGates < 6*100 {
		t.Errorf("expected heavy GC cost, got %d AND gates", st.GCGates)
	} else if st.ExtOTs == 0 {
		t.Error("no OT work recorded")
	}
}

// TestEzPCRunsBaseOTsOncePerInstance: on a model with two ReLU layers the
// engine runs one setup's base OTs, at its first ReLU, and draws both
// layers' extension OTs — over two inferences — from it; a second engine
// runs its own.
func TestEzPCRunsBaseOTsOncePerInstance(t *testing.T) {
	r := mathrand.New(mathrand.NewSource(73))
	net, err := nn.NewNetwork("bl-fc2relu", tensor.Shape{4},
		nn.NewFC("fc1", 4, 6, r),
		nn.NewReLU("relu1"),
		nn.NewFC("fc2", 6, 5, r),
		nn.NewReLU("relu2"),
		nn.NewFC("fc3", 5, 3, r),
		nn.NewSoftMax("sm"),
	)
	if err != nil {
		t.Fatal(err)
	}
	var setups []*garble.OTSetup
	for engine := 0; engine < 2; engine++ {
		e, err := NewEzPC(net, int64(20+engine))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 2; i++ {
			x := sampleInput(net.InputShape, int64(30+i))
			out, _, err := e.Infer(x)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := net.Forward(x); !tensor.AllClose(want, out, 1e-2) {
				t.Errorf("EzPC %v vs plain %v", out.Data(), want.Data())
			}
			// Both ReLU layers convert 6 + 5 elements per inference.
			if ext, want := e.Stats().ExtOTs, uint64(i*(6+5)*garble.ReLUEvalBits); ext != want {
				t.Errorf("engine %d after %d inferences: %d extension OTs, want %d", engine, i, ext, want)
			}
			if e.ot == nil || (i > 1 && e.ot != setups[len(setups)-1]) {
				t.Errorf("engine %d inference %d ran a new base-OT setup", engine, i)
			}
			if i == 1 {
				setups = append(setups, e.ot)
			}
		}
	}
	if setups[0] == setups[1] {
		t.Error("two engines share one base-OT setup")
	}
}
