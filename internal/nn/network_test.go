package nn

import (
	"math"
	"testing"

	"ppstream/internal/tensor"
)

func smallNet(t *testing.T) *Network {
	t.Helper()
	r := rng()
	net, err := NewNetwork("test", tensor.Shape{4},
		NewFC("fc1", 4, 6, r),
		NewReLU("relu1"),
		NewFC("fc2", 6, 3, r),
		NewSoftMax("softmax"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNetworkValidate(t *testing.T) {
	r := rng()
	if _, err := NewNetwork("bad", tensor.Shape{4}); err == nil {
		t.Error("empty network accepted")
	}
	if _, err := NewNetwork("bad", tensor.Shape{4},
		NewFC("fc1", 4, 6, r), NewFC("fc2", 5, 3, r)); err == nil {
		t.Error("shape-mismatched chain accepted")
	}
	if _, err := NewNetwork("bad", tensor.Shape{0}, NewReLU("r")); err == nil {
		t.Error("invalid input shape accepted")
	}
	for _, max := range []float64{-1, math.NaN(), math.Inf(1)} {
		net := smallNet(t)
		net.InputMax = max
		if err := net.Validate(); err == nil {
			t.Errorf("input domain ±%v accepted", max)
		}
	}
}

func TestNetworkForwardPredict(t *testing.T) {
	net := smallNet(t)
	x := tensor.MustFromSlice([]float64{1, -1, 0.5, 2}, 4)
	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 3 {
		t.Fatalf("output size %d", out.Size())
	}
	var sum float64
	for _, v := range out.Data() {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmax output sums to %v", sum)
	}
	pred, err := net.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if pred != tensor.ArgMax(out) {
		t.Error("Predict disagrees with ArgMax")
	}
	if _, err := net.Forward(tensor.Zeros(5)); err == nil {
		t.Error("wrong input shape accepted")
	}
}

func TestNetworkAccuracy(t *testing.T) {
	net := smallNet(t)
	xs := []*tensor.Dense{tensor.Zeros(4), tensor.Ones(4)}
	p0, _ := net.Predict(xs[0])
	p1, _ := net.Predict(xs[1])
	acc, err := net.Accuracy(xs, []int{p0, p1})
	if err != nil || acc != 1 {
		t.Errorf("accuracy with true labels = %v (%v)", acc, err)
	}
	wrong0 := (p0 + 1) % 3
	acc, _ = net.Accuracy(xs, []int{wrong0, p1})
	if acc != 0.5 {
		t.Errorf("half-right accuracy = %v", acc)
	}
	if _, err := net.Accuracy(xs, []int{0}); err == nil {
		t.Error("mismatched label count accepted")
	}
	if _, err := net.Accuracy(nil, nil); err == nil {
		t.Error("empty set accepted")
	}
}

func TestNetworkCloneIndependence(t *testing.T) {
	net := smallNet(t)
	clone := net.Clone()
	x := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 4)
	orig, _ := net.Forward(x)
	// mutate the clone's first FC weights
	clone.Layers[0].(*FC).W.Data()[0] += 10
	after, _ := net.Forward(x)
	if !tensor.AllClose(orig, after, 0) {
		t.Error("mutating clone changed original")
	}
	cloneOut, _ := clone.Forward(x)
	if tensor.AllClose(orig, cloneOut, 1e-12) {
		t.Error("clone mutation had no effect on clone")
	}
}

func TestParamCount(t *testing.T) {
	net := smallNet(t)
	want := 4*6 + 6 + 6*3 + 3
	if got := net.ParamCount(); got != want {
		t.Errorf("ParamCount = %d, want %d", got, want)
	}
}

func TestDecomposeAndMerge(t *testing.T) {
	r := rng()
	ss := NewScaledSigmoid("mixed", 4)
	net, err := NewNetwork("m", tensor.Shape{4},
		NewFC("fc1", 4, 4, r), // linear
		ss,                    // mixed -> linear + nonlinear
		NewFC("fc2", 4, 2, r), // linear
		NewSoftMax("sm"),      // nonlinear
	)
	if err != nil {
		t.Fatal(err)
	}
	prims, err := Decompose(net)
	if err != nil {
		t.Fatal(err)
	}
	if len(prims) != 5 {
		t.Fatalf("Decompose produced %d primitives, want 5", len(prims))
	}
	merged, err := Merge(net)
	if err != nil {
		t.Fatal(err)
	}
	// fc1+scale | sigmoid | fc2 | softmax -> L,N,L,N
	wantKinds := []Kind{Linear, NonLinear, Linear, NonLinear}
	if len(merged) != len(wantKinds) {
		t.Fatalf("Merge produced %d stages: %v", len(merged), merged)
	}
	for i, m := range merged {
		if m.Kind != wantKinds[i] {
			t.Errorf("stage %d kind %v, want %v", i, m.Kind, wantKinds[i])
		}
	}
	if len(merged[0].Layers) != 2 {
		t.Errorf("first merged layer has %d layers, want 2 (fc1+scale)", len(merged[0].Layers))
	}
	if err := CheckAlternating(merged); err != nil {
		t.Errorf("alternation violated: %v", err)
	}
	if err := ProtocolShape(merged); err != nil {
		t.Errorf("protocol shape violated: %v", err)
	}
}

func TestMergedForwardEqualsNetwork(t *testing.T) {
	net := smallNet(t)
	merged, err := Merge(net)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float64{0.3, -1, 2, 0.1}, 4)
	direct, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	cur := x
	for _, m := range merged {
		cur, err = m.Forward(cur)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !tensor.AllClose(direct, cur, 1e-12) {
		t.Error("merged pipeline disagrees with direct forward")
	}
}

func TestPrimitiveLayerElementWiseOnly(t *testing.T) {
	p := &PrimitiveLayer{Kind: NonLinear, Layers: []Layer{NewReLU("r"), NewSigmoid("s")}}
	if !p.ElementWiseOnly() {
		t.Error("ReLU+Sigmoid should be element-wise only")
	}
	p2 := &PrimitiveLayer{Kind: NonLinear, Layers: []Layer{NewSoftMax("sm")}}
	if p2.ElementWiseOnly() {
		t.Error("SoftMax stage must not be element-wise")
	}
}

func TestProtocolShapeErrors(t *testing.T) {
	lin := &PrimitiveLayer{Kind: Linear}
	non := &PrimitiveLayer{Kind: NonLinear}
	if err := ProtocolShape([]*PrimitiveLayer{lin}); err == nil {
		t.Error("single stage accepted")
	}
	if err := ProtocolShape([]*PrimitiveLayer{non, lin}); err == nil {
		t.Error("non-linear start accepted")
	}
	if err := ProtocolShape([]*PrimitiveLayer{lin, non, lin}); err == nil {
		t.Error("linear finish accepted")
	}
}

func TestReplaceMaxPool(t *testing.T) {
	r := rng()
	conv, err := NewConv("c1", tensor.ConvParams{InC: 1, InH: 4, InW: 4, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork("mp", tensor.Shape{1, 4, 4},
		conv,
		NewMaxPool("pool", 2, 2),
		NewFlatten("fl"),
		NewFC("fc", 2*2*2, 2, r),
		NewSoftMax("sm"),
	)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, err := ReplaceMaxPool(net)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range rewritten.Layers {
		if _, ok := l.(*MaxPool); ok {
			t.Fatal("MaxPool survived the rewrite")
		}
	}
	// Shapes must still chain (Validate ran inside NewNetwork), and
	// output must remain a distribution.
	x := tensor.Zeros(1, 4, 4)
	x.Fill(1)
	out, err := rewritten.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range out.Data() {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("rewritten net output sums to %v", sum)
	}
}

func TestTrainLearnsSeparableData(t *testing.T) {
	r := rng()
	net, err := NewNetwork("sep", tensor.Shape{2},
		NewFC("fc1", 2, 8, r),
		NewReLU("relu"),
		NewFC("fc2", 8, 2, r),
		NewSoftMax("sm"),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Two linearly separable clusters.
	var xs []*tensor.Dense
	var ys []int
	for i := 0; i < 60; i++ {
		c := i % 2
		cx := float64(c*4 - 2)
		xs = append(xs, tensor.MustFromSlice([]float64{cx + r.NormFloat64()*0.3, cx + r.NormFloat64()*0.3}, 2))
		ys = append(ys, c)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 40
	if err := Train(net, xs, ys, cfg); err != nil {
		t.Fatal(err)
	}
	acc, err := net.Accuracy(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Errorf("training accuracy %v < 0.95 on separable data", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	net := smallNet(t)
	x := []*tensor.Dense{tensor.Zeros(4)}
	if err := Train(net, nil, nil, DefaultTrainConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	if err := Train(net, x, []int{5}, DefaultTrainConfig()); err == nil {
		t.Error("out-of-range label accepted")
	}
	bad := DefaultTrainConfig()
	bad.Epochs = 0
	if err := Train(net, x, []int{0}, bad); err == nil {
		t.Error("zero epochs accepted")
	}
	r := rng()
	noSoftmax, _ := NewNetwork("ns", tensor.Shape{4}, NewFC("fc", 4, 2, r))
	if err := Train(noSoftmax, x, []int{0}, DefaultTrainConfig()); err == nil {
		t.Error("network without SoftMax head accepted")
	}
}

// TestElementWiseBound: the bound of a run of element-wise layers over
// [−b, b] is taken at the ends, layer by layer; anything position-
// dependent has none.
func TestElementWiseBound(t *testing.T) {
	relu, sig := NewReLU("r"), NewSigmoid("s")
	for _, c := range []struct {
		layers []Layer
		in     float64
		want   float64
	}{
		{nil, 7, 7},
		{[]Layer{relu}, 7, 7},
		{[]Layer{relu}, -7, 7},
		{[]Layer{sig}, 2, sig.ApplyElement(2)},
		{[]Layer{relu, sig}, 2, sig.ApplyElement(2)},
		{[]Layer{sig, relu}, 0, 0.5},
		{[]Layer{relu, NewSoftMax("sm")}, 2, math.Inf(1)},
	} {
		if got := ElementWiseBound(c.layers, c.in); got != c.want {
			t.Errorf("ElementWiseBound(%d layers, %v) = %v, want %v", len(c.layers), c.in, got, c.want)
		}
	}
	// Sound on a grid, not only at the ends.
	for _, layers := range [][]Layer{{relu}, {sig}, {relu, sig}, {sig, relu}} {
		const b = 3.0
		bound := ElementWiseBound(layers, b)
		for v := -b; v <= b; v += 1.0 / 64 {
			y := v
			for _, l := range layers {
				y = l.(ElementWise).ApplyElement(y)
			}
			if math.Abs(y) > bound {
				t.Fatalf("%d layers at %v give %v, above the bound %v", len(layers), v, y, bound)
			}
		}
	}
}

func TestCalibrateBatchNormPipeline(t *testing.T) {
	r := rng()
	net, err := NewNetwork("bncal", tensor.Shape{3},
		NewFC("fc", 3, 2, r),
		NewBatchNorm("bn", 2),
		NewReLU("relu"),
		NewFC("fc2", 2, 2, r),
		NewSoftMax("sm"),
	)
	if err != nil {
		t.Fatal(err)
	}
	xs := []*tensor.Dense{
		tensor.MustFromSlice([]float64{1, 2, 3}, 3),
		tensor.MustFromSlice([]float64{-1, 0, 1}, 3),
		tensor.MustFromSlice([]float64{4, 4, 4}, 3),
	}
	if err := CalibrateBatchNorm(net, xs); err != nil {
		t.Fatal(err)
	}
	bn := net.Layers[1].(*BatchNorm)
	if bn.Mean.At(0) == 0 && bn.Mean.At(1) == 0 {
		t.Error("calibration left default statistics")
	}
	if err := CalibrateBatchNorm(net, nil); err == nil {
		t.Error("empty calibration accepted")
	}
}
