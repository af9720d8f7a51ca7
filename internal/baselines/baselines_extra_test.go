package baselines

import (
	"math"
	"math/big"
	mathrand "math/rand"
	"testing"

	"ppstream/internal/nn"
	"ppstream/internal/secshare"
	"ppstream/internal/tensor"
)

// TestEzPCBatchNorm covers the EzPC BN path on a conv+BN model.
func TestEzPCBatchNorm(t *testing.T) {
	r := mathrand.New(mathrand.NewSource(75))
	p := tensor.ConvParams{InC: 1, InH: 4, InW: 4, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv, err := nn.NewConv("c", p, r)
	if err != nil {
		t.Fatal(err)
	}
	bn := nn.NewBatchNorm("bn", 2)
	bn.Gamma = tensor.MustFromSlice([]float64{1.2, 0.8}, 2)
	net, err := nn.NewNetwork("ezpc-bn", tensor.Shape{1, 4, 4},
		conv,
		bn,
		nn.NewReLU("relu"),
		nn.NewFlatten("fl"),
		nn.NewFC("fc", 32, 2, r),
		nn.NewSoftMax("sm"),
	)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEzPC(net, 14)
	if err != nil {
		t.Fatal(err)
	}
	x := sampleInput(net.InputShape, 8)
	out, _, err := e.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := net.Forward(x)
	if !tensor.AllClose(want, out, 0.05) {
		t.Errorf("EzPC BN diverges:\n got %v\nwant %v", out.Data(), want.Data())
	}
}

// TestDotPrivateAccounting checks the private-weight dot product behind
// the engine's linear layers: it consumes one triple per non-zero weight
// and, truncated back to scale 2^16, stays accurate over a long row.
func TestDotPrivateAccounting(t *testing.T) {
	const F = 1 << ezpcFracBits
	eng := secshare.NewEngine(15)
	r := mathrand.New(mathrand.NewSource(15))
	n := 64
	w := make([]int32, n)
	xs := make([]secshare.Shares, n)
	var want float64
	for i := 0; i < n; i++ {
		wf, xf := float64(i%7)/7-0.5, float64(i%5)/5-0.4
		w[i] = int32(math.Round(wf * F))
		xs[i] = secshare.Split(r, uint64(int64(math.Round(xf*F))))
		want += wf * xf
	}
	dot, err := eng.DotPrivateInt(w, xs, big.NewInt(F*F/4))
	if err != nil {
		t.Fatal(err)
	}
	got := float64(secshare.SignedOfRing(secshare.Truncate(dot, ezpcFracBits).Reconstruct())) / F
	want += 0.25
	if diff := got - want; diff > 0.01 || diff < -0.01 {
		t.Errorf("dot = %v, want %v", got, want)
	}
	if eng.Stats.Triples != uint64(n) {
		t.Errorf("%d triples for %d non-zero weights (weights would leak)", eng.Stats.Triples, n)
	}
	if _, err := eng.DotPrivateInt(w[:3], xs, nil); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestCipherBaseRejectsBadModel: CipherBase inherits the protocol's
// structural validation.
func TestCipherBaseRejectsBadModel(t *testing.T) {
	k := key(t)
	r := mathrand.New(mathrand.NewSource(76))
	bad, _ := nn.NewNetwork("bad", tensor.Shape{4}, nn.NewFC("fc", 4, 2, r))
	if _, err := NewCipherBase(bad, k, 100); err == nil {
		t.Error("linear-only network accepted")
	}
}
