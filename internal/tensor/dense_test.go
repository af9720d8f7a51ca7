package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAddSubMulScale(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := MustFromSlice([]float64{10, 20, 30, 40}, 2, 2)
	prod, _ := Mul(a, b)
	if prod.At(0, 1) != 40 {
		t.Errorf("Mul wrong: %v", prod.Data())
	}
}

func TestMatVec(t *testing.T) {
	w := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := MustFromSlice([]float64{1, 0, -1}, 3)
	b := MustFromSlice([]float64{10, 20}, 2)
	y, err := MatVec(w, x, b)
	if err != nil {
		t.Fatal(err)
	}
	if y.At(0) != 1*1+2*0+3*(-1)+10 {
		t.Errorf("y[0] = %v", y.At(0))
	}
	if y.At(1) != 4*1+5*0+6*(-1)+20 {
		t.Errorf("y[1] = %v", y.At(1))
	}
	// nil bias allowed
	y2, err := MatVec(w, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if y2.At(0) != -2 {
		t.Errorf("nil-bias y[0] = %v", y2.At(0))
	}
	if _, err := MatVec(x, x, nil); err == nil {
		t.Error("rank-1 weight accepted")
	}
	if _, err := MatVec(w, b, nil); err == nil {
		t.Error("input size mismatch accepted")
	}
}

func TestConvParamsValidate(t *testing.T) {
	good := ConvParams{InC: 1, InH: 3, InW: 3, OutC: 1, KH: 2, KW: 2, Stride: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []ConvParams{
		{InC: 0, InH: 3, InW: 3, OutC: 1, KH: 2, KW: 2, Stride: 1},
		{InC: 1, InH: 3, InW: 3, OutC: 0, KH: 2, KW: 2, Stride: 1},
		{InC: 1, InH: 3, InW: 3, OutC: 1, KH: 0, KW: 2, Stride: 1},
		{InC: 1, InH: 3, InW: 3, OutC: 1, KH: 2, KW: 2, Stride: 0},
		{InC: 1, InH: 3, InW: 3, OutC: 1, KH: 2, KW: 2, Stride: 1, Pad: -1},
		{InC: 1, InH: 1, InW: 1, OutC: 1, KH: 2, KW: 2, Stride: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
}

// TestConv2DPaperExample reproduces the paper's Figure 5(a): a 3×3 input,
// 2×2 filter, stride 1, no padding, yielding a 2×2 output where each
// element depends on one 2×2 sub-tensor.
func TestConv2DPaperExample(t *testing.T) {
	x := MustFromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	w := MustFromSlice([]float64{1, 0, 0, 1}, 1, 1, 2, 2) // identity-corner filter
	p := ConvParams{InC: 1, InH: 3, InW: 3, OutC: 1, KH: 2, KW: 2, Stride: 1}
	out, err := Conv2D(x, w, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1 + 5, 2 + 6, 4 + 8, 5 + 9}
	for i, v := range want {
		if out.AtFlat(i) != v {
			t.Fatalf("Conv2D = %v, want %v", out.Data(), want)
		}
	}
}

func TestConv2DWithPaddingAndBias(t *testing.T) {
	x := MustFromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	w := MustFromSlice([]float64{1, 1, 1, 1, 1, 1, 1, 1, 1}, 1, 1, 3, 3)
	bias := MustFromSlice([]float64{100}, 1)
	p := ConvParams{InC: 1, InH: 2, InW: 2, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	out, err := Conv2D(x, w, bias, p)
	if err != nil {
		t.Fatal(err)
	}
	// centre position sums the whole input.
	if out.Shape()[1] != 2 || out.Shape()[2] != 2 {
		t.Fatalf("output shape %v", out.Shape())
	}
	if out.At(0, 0, 0) != 1+2+3+4+100 {
		t.Errorf("padded conv wrong at (0,0): %v", out.At(0, 0, 0))
	}
}

func TestIm2ColShapes(t *testing.T) {
	x := Zeros(2, 4, 4)
	p := ConvParams{InC: 2, InH: 4, InW: 4, OutC: 3, KH: 2, KW: 2, Stride: 2}
	cols, err := Im2Col(x, p)
	if err != nil {
		t.Fatal(err)
	}
	if !cols.Shape().Equal(Shape{4, 8}) {
		t.Errorf("Im2Col shape = %v, want [4 8]", cols.Shape())
	}
	if _, err := Im2Col(Zeros(1, 4, 4), p); err == nil {
		t.Error("shape mismatch accepted")
	}
}

// Property: Conv2D via Im2Col agrees with direct nested-loop convolution
// on random inputs.
func TestConv2DMatchesDirectProperty(t *testing.T) {
	f := func(seedVals []float64) bool {
		p := ConvParams{InC: 2, InH: 5, InW: 5, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
		x := Zeros(p.InC, p.InH, p.InW)
		w := Zeros(p.OutC, p.InC, p.KH, p.KW)
		fillFrom(x.Data(), seedVals)
		fillFrom(w.Data(), seedVals)
		got, err := Conv2D(x, w, nil, p)
		if err != nil {
			return false
		}
		want := directConv(x, w, p)
		return AllClose(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func fillFrom(dst, src []float64) {
	for i := range dst {
		if len(src) == 0 {
			dst[i] = float64(i%7) - 3
			continue
		}
		v := src[i%len(src)]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 1
		}
		dst[i] = math.Mod(v, 10)
	}
}

func directConv(x, w *Dense, p ConvParams) *Dense {
	oh, ow := p.OutH(), p.OutW()
	out := Zeros(p.OutC, oh, ow)
	for f := 0; f < p.OutC; f++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var sum float64
				for c := 0; c < p.InC; c++ {
					for ky := 0; ky < p.KH; ky++ {
						for kx := 0; kx < p.KW; kx++ {
							iy := oy*p.Stride + ky - p.Pad
							ix := ox*p.Stride + kx - p.Pad
							if iy < 0 || iy >= p.InH || ix < 0 || ix >= p.InW {
								continue
							}
							sum += w.At(f, c, ky, kx) * x.At(c, iy, ix)
						}
					}
				}
				out.Set(sum, f, oy, ox)
			}
		}
	}
	return out
}

func TestMaxPool2D(t *testing.T) {
	x := MustFromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out, err := MaxPool2D(x, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{6, 8, 14, 16}
	for i, v := range want {
		if out.AtFlat(i) != v {
			t.Fatalf("MaxPool2D = %v, want %v", out.Data(), want)
		}
	}
	if _, err := MaxPool2D(MustFromSlice([]float64{1, 2}, 2), 2, 2); err == nil {
		t.Error("rank-1 input accepted")
	}
	if _, err := MaxPool2D(x, 0, 2); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := MaxPool2D(x, 5, 1); err == nil {
		t.Error("oversized window accepted")
	}
}

func TestArgMax(t *testing.T) {
	a := MustFromSlice([]float64{0.1, 0.9, 0.3}, 3)
	if ArgMax(a) != 1 {
		t.Errorf("ArgMax = %d", ArgMax(a))
	}
	ties := MustFromSlice([]float64{5, 5}, 2)
	if ArgMax(ties) != 0 {
		t.Errorf("tie should resolve to lowest index, got %d", ArgMax(ties))
	}
}

func TestAllClose(t *testing.T) {
	a := MustFromSlice([]float64{1, 2}, 2)
	b := MustFromSlice([]float64{1.0001, 2}, 2)
	if !AllClose(a, b, 1e-3) {
		t.Error("close tensors reported far")
	}
	if AllClose(a, b, 1e-6) {
		t.Error("far tensors reported close")
	}
	c := MustFromSlice([]float64{1, 2}, 1, 2)
	if AllClose(a, c, 1) {
		t.Error("different shapes reported close")
	}
}
