package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ppstream/internal/tensor"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(7)) }

func TestKindString(t *testing.T) {
	if Linear.String() != "linear" || NonLinear.String() != "non-linear" || Mixed.String() != "mixed" {
		t.Error("Kind.String wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestFCForward(t *testing.T) {
	fc := NewFC("fc", 3, 2, rng())
	fc.W = tensor.MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	fc.B = tensor.MustFromSlice([]float64{0.5, -0.5}, 2)
	x := tensor.MustFromSlice([]float64{1, 0, -1}, 3)
	y, err := fc.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if y.At(0) != -1.5 || y.At(1) != -2.5 {
		t.Errorf("FC forward = %v", y.Data())
	}
	if fc.Kind() != Linear {
		t.Error("FC must be linear")
	}
	if _, err := fc.OutputShape(tensor.Shape{4}); err == nil {
		t.Error("bad input shape accepted")
	}
}

func TestConvKindAndShape(t *testing.T) {
	p := tensor.ConvParams{InC: 1, InH: 4, InW: 4, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	c, err := NewConv("c", p, rng())
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind() != Linear {
		t.Error("Conv must be linear")
	}
	out, err := c.OutputShape(tensor.Shape{1, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.Shape{2, 4, 4}) {
		t.Errorf("conv output shape %v", out)
	}
	if _, err := c.OutputShape(tensor.Shape{2, 4, 4}); err == nil {
		t.Error("wrong channel count accepted")
	}
	if _, err := NewConv("bad", tensor.ConvParams{}, rng()); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestBatchNormForward(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	bn.Mean = tensor.MustFromSlice([]float64{1, 2}, 2)
	bn.Var = tensor.MustFromSlice([]float64{4, 9}, 2)
	bn.Gamma = tensor.MustFromSlice([]float64{2, 3}, 2)
	bn.Beta = tensor.MustFromSlice([]float64{10, 20}, 2)
	x := tensor.MustFromSlice([]float64{3, 5}, 2)
	y, err := bn.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	want0 := 2*(3.0-1)/math.Sqrt(4+bn.Eps) + 10
	want1 := 3*(5.0-2)/math.Sqrt(9+bn.Eps) + 20
	if math.Abs(y.At(0)-want0) > 1e-9 || math.Abs(y.At(1)-want1) > 1e-9 {
		t.Errorf("BN forward = %v, want [%v %v]", y.Data(), want0, want1)
	}
	if bn.Kind() != Linear {
		t.Error("frozen-stats BN must be linear")
	}
	if _, err := bn.Forward(tensor.Zeros(3)); err == nil {
		t.Error("wrong feature count accepted")
	}
	if _, err := bn.OutputShape(tensor.Shape{2, 2}); err == nil {
		t.Error("rank-2 input accepted")
	}
}

func TestBatchNormChannelMode(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	bn.Mean = tensor.MustFromSlice([]float64{0, 10}, 2)
	x := tensor.Zeros(2, 2, 2)
	x.Fill(10)
	y, err := bn.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	// channel 0 normalizes (10-0)/√(1+ε) ≈ 10; channel 1 (10-10) = 0.
	if math.Abs(y.At(0, 0, 0)-10) > 1e-3 || math.Abs(y.At(1, 0, 0)) > 1e-9 {
		t.Errorf("per-channel normalization wrong: %v", y.Data())
	}
}

func TestBatchNormCalibrate(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	samples := []*tensor.Dense{
		tensor.MustFromSlice([]float64{2}, 1),
		tensor.MustFromSlice([]float64{4}, 1),
		tensor.MustFromSlice([]float64{6}, 1),
	}
	if err := bn.Calibrate(samples); err != nil {
		t.Fatal(err)
	}
	if math.Abs(bn.Mean.At(0)-4) > 1e-9 {
		t.Errorf("calibrated mean %v", bn.Mean.At(0))
	}
	wantVar := (4.0 + 0 + 4) / 3
	if math.Abs(bn.Var.At(0)-wantVar) > 1e-9 {
		t.Errorf("calibrated var %v, want %v", bn.Var.At(0), wantVar)
	}
	if err := bn.Calibrate(nil); err == nil {
		t.Error("empty calibration accepted")
	}
}

func TestReLUAndSigmoid(t *testing.T) {
	r := NewReLU("r")
	x := tensor.MustFromSlice([]float64{-2, 0, 3}, 3)
	y, _ := r.Forward(x)
	if y.At(0) != 0 || y.At(2) != 3 {
		t.Errorf("ReLU = %v", y.Data())
	}
	if r.Kind() != NonLinear {
		t.Error("ReLU kind")
	}
	var _ ElementWise = r

	s := NewSigmoid("s")
	ys, _ := s.Forward(tensor.MustFromSlice([]float64{0}, 1))
	if math.Abs(ys.At(0)-0.5) > 1e-12 {
		t.Errorf("Sigmoid(0) = %v", ys.At(0))
	}
	var _ ElementWise = s
}

func TestSoftMax(t *testing.T) {
	sm := NewSoftMax("sm")
	y, err := sm.Forward(tensor.MustFromSlice([]float64{1, 2, 3}, 3))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range y.Data() {
		if v <= 0 {
			t.Error("softmax output non-positive")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmax sums to %v", sum)
	}
	if y.At(2) <= y.At(0) {
		t.Error("softmax did not preserve order")
	}
	// numerical stability with large logits
	big, err := sm.Forward(tensor.MustFromSlice([]float64{1000, 1001}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(big.At(0)) || math.IsNaN(big.At(1)) {
		t.Error("softmax overflowed on large logits")
	}
	if _, err := sm.Forward(tensor.Zeros(1).Flatten().Clone()); err != nil {
		t.Errorf("size-1 softmax failed: %v", err)
	}
	// SoftMax must NOT be element-wise (position-dependent).
	if _, ok := interface{}(sm).(ElementWise); ok {
		t.Error("SoftMax must not be ElementWise")
	}
}

func TestMaxPoolLayer(t *testing.T) {
	mp := NewMaxPool("mp", 2, 2)
	out, err := mp.OutputShape(tensor.Shape{1, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.Shape{1, 2, 2}) {
		t.Errorf("maxpool shape %v", out)
	}
	if _, err := mp.OutputShape(tensor.Shape{4, 4}); err == nil {
		t.Error("rank-2 accepted")
	}
	if mp.Kind() != NonLinear {
		t.Error("MaxPool kind")
	}
}

func TestFlatten(t *testing.T) {
	f := NewFlatten("f")
	x := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y, _ := f.Forward(x)
	if y.Shape().Rank() != 1 || y.Size() != 4 {
		t.Errorf("flatten shape %v", y.Shape())
	}
	if f.Kind() != Linear {
		t.Error("Flatten kind should be linear (no-op)")
	}
}

func TestScaledSigmoidSplit(t *testing.T) {
	ss := NewScaledSigmoid("ss", 3)
	ss.Scale = tensor.MustFromSlice([]float64{2, 1, 0.5}, 3)
	if ss.Kind() != Mixed {
		t.Error("ScaledSigmoid kind")
	}
	x := tensor.MustFromSlice([]float64{1, -1, 4}, 3)
	direct, err := ss.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	lin, non := ss.Split()
	if lin.Kind() != Linear || non.Kind() != NonLinear {
		t.Fatal("split kinds wrong")
	}
	mid, err := lin.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	split, err := non.Forward(mid)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(direct, split, 1e-12) {
		t.Errorf("split result %v != direct %v", split.Data(), direct.Data())
	}
}

// gradient checking via central differences for every Backprop layer: the
// returned dL/dx, and for a Trainable layer the gradient Backward adds into
// each parameter's buffer, against the central difference of dy·f(x).
func TestBackwardGradcheck(t *testing.T) {
	r := rng()
	cases := []struct {
		name  string
		layer Layer
		in    tensor.Shape
	}{
		{"fc", NewFC("fc", 4, 3, r), tensor.Shape{4}},
		{"relu", NewReLU("r"), tensor.Shape{5}},
		{"sigmoid", NewSigmoid("s"), tensor.Shape{5}},
		{"softmax", NewSoftMax("sm"), tensor.Shape{4}},
		{"flatten", NewFlatten("f"), tensor.Shape{2, 3}},
		{"batchnorm", NewBatchNorm("bn", 3), tensor.Shape{3}},
		{"scaledsigmoid", NewScaledSigmoid("ss", 4), tensor.Shape{4}},
	}
	conv, err := NewConv("c", tensor.ConvParams{InC: 2, InH: 4, InW: 4, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		name  string
		layer Layer
		in    tensor.Shape
	}{"conv", conv, tensor.Shape{2, 4, 4}})
	cases = append(cases, struct {
		name  string
		layer Layer
		in    tensor.Shape
	}{"maxpool", NewMaxPool("mp", 2, 2), tensor.Shape{1, 4, 4}})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bp, ok := c.layer.(Backprop)
			if !ok {
				t.Fatalf("%s does not implement Backprop", c.name)
			}
			x := tensor.Zeros(c.in...)
			for i := range x.Data() {
				x.Data()[i] = r.NormFloat64()
			}
			outShape, err := c.layer.OutputShape(c.in)
			if err != nil {
				t.Fatal(err)
			}
			// random downstream gradient
			dy := tensor.Zeros(outShape...)
			for i := range dy.Data() {
				dy.Data()[i] = r.NormFloat64()
			}
			var params []*tensor.Dense
			if tr, ok := c.layer.(Trainable); ok {
				params = tr.Params()
			}
			grads := make([][]float64, len(params))
			for i, p := range params {
				grads[i] = make([]float64, p.Size())
			}
			dx, err := bp.Backward(x, dy, grads)
			if err != nil {
				t.Fatal(err)
			}
			const eps = 1e-5
			loss := func() float64 {
				y, err := c.layer.Forward(x)
				if err != nil {
					t.Fatal(err)
				}
				var sum float64
				for i, v := range y.Data() {
					sum += v * dy.Data()[i]
				}
				return sum
			}
			// check compares got[i] with the central difference of
			// dy·f(x) in v[i], for every element of v.
			check := func(what string, v, got []float64) {
				for i := range v {
					orig := v[i]
					v[i] = orig + eps
					up := loss()
					v[i] = orig - eps
					down := loss()
					v[i] = orig
					want := (up - down) / (2 * eps)
					if math.Abs(got[i]-want) > 1e-3*(1+math.Abs(want)) {
						t.Errorf("%s: %s[%d] = %v, numeric %v", c.name, what, i, got[i], want)
					}
				}
			}
			check("dL/dx", x.Data(), dx.Data())
			for pi, p := range params {
				check(fmt.Sprintf("dL/dparam%d", pi), p.Data(), grads[pi])
			}
		})
	}
}
