package qnn

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"

	"ppstream/internal/nn"
	"ppstream/internal/secshare"
	"ppstream/internal/tensor"
)

// shareBigTensor splits a big-integer tensor (already at some scale
// F^exp) into additive ring shares.
func shareBigTensor(t *testing.T, x *tensor.Tensor[*big.Int]) *tensor.Tensor[secshare.Shares] {
	t.Helper()
	out := tensor.New[secshare.Shares](x.Shape()...)
	for i, v := range x.Data() {
		s, err := secshare.SplitRandom(rand.Reader, secshare.RingOfBig(v))
		if err != nil {
			t.Fatal(err)
		}
		out.SetFlat(i, s)
	}
	return out
}

// reconstructBigTensor opens a shared tensor back into signed big
// integers for comparison against the plaintext reference.
func reconstructBigTensor(x *tensor.Tensor[secshare.Shares]) *tensor.Tensor[*big.Int] {
	out := tensor.New[*big.Int](x.Shape()...)
	for i, s := range x.Data() {
		out.SetFlat(i, big.NewInt(secshare.SignedOfRing(s.Reconstruct())))
	}
	return out
}

// randomBigInput builds an integer input tensor at scale F (exponent 1)
// from small float activations, as the data provider would.
func randomBigInput(rng *mrand.Rand, F int64, shape ...int) *tensor.Tensor[*big.Int] {
	x := tensor.Zeros(shape...)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	xi := ScaleInput(x, F)
	return tensor.Map(xi, func(v int64) *big.Int { return big.NewInt(v) })
}

// TestApplyStageSharedMatchesPlain is the qnn half of the backend
// differential guarantee: executing a randomized linear stage over
// secret shares reconstructs bit-identically to the big-integer
// reference, for each supported op type.
func TestApplyStageSharedMatchesPlain(t *testing.T) {
	const F = 100
	rng := mrand.New(mrand.NewSource(77))

	stages := []struct {
		name   string
		layers []nn.Layer
		shape  tensor.Shape
	}{
		{"fc", []nn.Layer{nn.NewFC("fc", 9, 7, rng)}, tensor.Shape{9}},
		{"fc+fc", []nn.Layer{nn.NewFC("a", 6, 8, rng), nn.NewFC("b", 8, 4, rng)}, tensor.Shape{6}},
		{"flatten+fc", []nn.Layer{nn.NewFlatten("fl"), nn.NewFC("fc", 12, 5, rng)}, tensor.Shape{3, 2, 2}},
		{"elemscale", []nn.Layer{&nn.ElemScale{LayerName: "es", Scale: tensor.MustFromSlice([]float64{2, -0.5, 0, 1.25}, 4)}}, tensor.Shape{4}},
	}
	if conv, err := nn.NewConv("cv", tensor.ConvParams{InC: 2, InH: 5, InW: 5, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}, rng); err == nil {
		stages = append(stages, struct {
			name   string
			layers []nn.Layer
			shape  tensor.Shape
		}{"conv", []nn.Layer{conv}, tensor.Shape{2, 5, 5}})
	} else {
		t.Fatal(err)
	}
	bn := nn.NewBatchNorm("bn", 3)
	for ch := 0; ch < 3; ch++ {
		bn.Gamma.Set(0.5+rng.Float64(), ch)
		bn.Beta.Set(rng.NormFloat64(), ch)
		bn.Mean.Set(rng.NormFloat64(), ch)
		bn.Var.Set(0.5+rng.Float64(), ch)
	}
	stages = append(stages, struct {
		name   string
		layers []nn.Layer
		shape  tensor.Shape
	}{"batchnorm", []nn.Layer{bn}, tensor.Shape{3, 4, 4}})

	for _, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			ops, err := QuantizeStage(&nn.PrimitiveLayer{Kind: nn.Linear, Layers: st.layers}, F)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 3; trial++ {
				x := randomBigInput(rng, F, st.shape...)
				want, err := ApplyStagePlain(ops, x)
				if err != nil {
					t.Fatal(err)
				}
				eng := secshare.NewEngine(int64(trial) + 1)
				xs := shareBigTensor(t, x)
				got, err := ApplyStageShared(eng, ops, xs)
				if err != nil {
					t.Fatal(err)
				}
				rec := reconstructBigTensor(got)
				for i, w := range want.Data() {
					if rec.Data()[i].Cmp(w) != 0 {
						t.Fatalf("trial %d elem %d: shared %s != plain %s", trial, i, rec.Data()[i], w)
					}
				}
				if eng.Stats.Triples == 0 && st.name != "flatten" {
					t.Fatal("no Beaver triples consumed")
				}
			}
		})
	}
}

// TestApplySharedThenTruncate pins the composition the EzPC-style
// baseline runs per layer: at F = 2^16, every op kind under ApplyStageShared
// followed by a 16-bit Truncate of each share reconstructs to ApplyPlain's
// output shifted right by 16, within one per element (exactly, for an op
// that does not raise the scale).
func TestApplySharedThenTruncate(t *testing.T) {
	const bits = 16
	rng := mrand.New(mrand.NewSource(78))
	conv, err := nn.NewConv("cv", tensor.ConvParams{InC: 2, InH: 5, InW: 5, OutC: 3, KH: 3, KW: 3, Stride: 2, Pad: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	bn := nn.NewBatchNorm("bn", 3)
	for ch := 0; ch < 3; ch++ {
		bn.Gamma.Set(0.5+rng.Float64(), ch)
		bn.Beta.Set(rng.NormFloat64(), ch)
		bn.Mean.Set(rng.NormFloat64(), ch)
		bn.Var.Set(0.5+rng.Float64(), ch)
	}
	cases := []struct {
		layer nn.Layer
		shape tensor.Shape
	}{
		{nn.NewFC("fc", 9, 7, rng), tensor.Shape{9}},
		{conv, tensor.Shape{2, 5, 5}},
		{bn, tensor.Shape{3, 4, 4}},
		{nn.NewFlatten("fl"), tensor.Shape{3, 2, 2}},
	}
	for _, c := range cases {
		t.Run(c.layer.Name(), func(t *testing.T) {
			op, err := Quantize(c.layer, 1<<bits)
			if err != nil {
				t.Fatal(err)
			}
			x := randomBigInput(rng, 1<<bits, c.shape...)
			want, err := op.ApplyPlain(x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ApplyStageShared(secshare.NewEngine(1), []Op{op}, shareBigTensor(t, x))
			if err != nil {
				t.Fatal(err)
			}
			shift := uint(bits * ScaleSteps([]nn.Layer{c.layer}))
			for i, s := range got.Data() {
				g := secshare.SignedOfRing(secshare.Truncate(s, shift).Reconstruct())
				w := new(big.Int).Rsh(want.Data()[i], shift).Int64()
				if d := g - w; d < -1 || d > 1 || (shift == 0 && d != 0) {
					t.Fatalf("elem %d: truncated shares open to %d, want %d", i, g, w)
				}
			}
		})
	}
}

func TestMulCount(t *testing.T) {
	rng := mrand.New(mrand.NewSource(3))
	fc := nn.NewFC("fc", 4, 3, rng)
	op, err := Quantize(fc, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := MulCount([]Op{op}, tensor.Shape{4}); err != nil || got <= 0 || got > 12 {
		t.Fatalf("fc MulCount = %d, %v; want in (0,12]", got, err)
	}
	bn, _ := Quantize(nn.NewBatchNorm("bn", 2), 100)
	if got, err := MulCount([]Op{bn}, tensor.Shape{2, 3, 3}); err != nil || got != 18 {
		t.Fatalf("batchnorm MulCount = %d, %v; want 18", got, err)
	}
	fl, _ := Quantize(nn.NewFlatten("fl"), 100)
	if got, err := MulCount([]Op{fl}, tensor.Shape{4}); err != nil || got != 0 {
		t.Fatalf("flatten MulCount = %d, %v; want 0", got, err)
	}
}
