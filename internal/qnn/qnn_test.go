package qnn

import (
	"crypto/rand"
	"errors"
	"math"
	"math/big"
	mathrand "math/rand"
	"sync"
	"testing"
	"testing/quick"

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

func rng() *mathrand.Rand { return mathrand.New(mathrand.NewSource(3)) }

// encryptFloats scales a float tensor to exponent 1 and encrypts it.
func encryptFloats(t *testing.T, k *paillier.PrivateKey, x *tensor.Dense, F int64) *paillier.CipherTensor {
	t.Helper()
	scaled := ScaleInput(x, F)
	ct, err := k.EncryptTensor(rand.Reader, scaled, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// decryptFloats decrypts and descales back to floats.
func decryptFloats(t *testing.T, k *paillier.PrivateKey, ct *paillier.CipherTensor, F int64, exp int) *tensor.Dense {
	t.Helper()
	bigT, err := paillier.DecryptTensorBig(k, ct, 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Descale(bigT, F, exp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestQuantizeRejects(t *testing.T) {
	if _, err := Quantize(nn.NewReLU("r"), 100); err == nil {
		t.Error("non-linear layer accepted")
	}
	if _, err := Quantize(nn.NewFC("fc", 2, 2, rng()), 0); err == nil {
		t.Error("zero factor accepted")
	}
	// A bias no integer holds is refused like an oversized weight.
	for _, b := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		fc := nn.NewFC("fc", 2, 2, rng())
		fc.B.Fill(b)
		var wr *WeightRangeError
		if _, err := Quantize(fc, 100); !errors.As(err, &wr) {
			t.Errorf("bias %v: err = %v, want a *WeightRangeError", b, err)
		}
	}
}

// TestQFCMatchesPlaintext verifies the homomorphic FC equals the float FC
// up to quantization error.
func TestQFCMatchesPlaintext(t *testing.T) {
	k := key(t)
	const F = 1000
	fc := nn.NewFC("fc", 4, 3, rng())
	op, err := Quantize(fc, F)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float64{0.5, -1.25, 2, 0.125}, 4)
	want, err := fc.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	ct := encryptFloats(t, k, x, F)
	outCT, err := ApplyStage(paillier.NewEvaluator(&k.PublicKey, nil), []Op{op}, ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := decryptFloats(t, k, outCT, F, 1+ScaleSteps([]nn.Layer{fc}))
	if !tensor.AllClose(want, got, 0.01) {
		t.Errorf("homomorphic FC %v, plaintext %v", got.Data(), want.Data())
	}
}

// TestQConvMatchesPlaintext does the same for convolution, padding
// included.
func TestQConvMatchesPlaintext(t *testing.T) {
	k := key(t)
	const F = 1000
	p := tensor.ConvParams{InC: 1, InH: 4, InW: 4, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv, err := nn.NewConv("c", p, rng())
	if err != nil {
		t.Fatal(err)
	}
	op, err := Quantize(conv, F)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Zeros(1, 4, 4)
	for i := range x.Data() {
		x.Data()[i] = float64(i%5)/4 - 0.5
	}
	want, err := conv.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	ct := encryptFloats(t, k, x, F)
	outCT, err := ApplyStage(paillier.NewEvaluator(&k.PublicKey, nil), []Op{op}, ct, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !outCT.Shape().Equal(want.Shape()) {
		t.Fatalf("cipher conv shape %v, want %v", outCT.Shape(), want.Shape())
	}
	got := decryptFloats(t, k, outCT, F, 2)
	if !tensor.AllClose(want, got, 0.02) {
		t.Errorf("homomorphic conv diverges:\n got %v\nwant %v", got.Data(), want.Data())
	}
}

func TestQBatchNormMatchesPlaintext(t *testing.T) {
	k := key(t)
	const F = 10000
	bn := nn.NewBatchNorm("bn", 2)
	bn.Mean = tensor.MustFromSlice([]float64{0.5, -1}, 2)
	bn.Var = tensor.MustFromSlice([]float64{2, 0.5}, 2)
	bn.Gamma = tensor.MustFromSlice([]float64{1.5, 0.7}, 2)
	bn.Beta = tensor.MustFromSlice([]float64{-0.25, 0.9}, 2)
	op, err := Quantize(bn, F)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float64{1, -2, 0.5, 3, -1, 0, 2, 1}, 2, 2, 2)
	want, err := bn.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	ct := encryptFloats(t, k, x, F)
	outCT, err := ApplyStage(paillier.NewEvaluator(&k.PublicKey, nil), []Op{op}, ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := decryptFloats(t, k, outCT, F, 2)
	if !tensor.AllClose(want, got, 0.01) {
		t.Errorf("homomorphic BN diverges:\n got %v\nwant %v", got.Data(), want.Data())
	}
}

func TestQElemScale(t *testing.T) {
	k := key(t)
	const F = 1000
	es := &nn.ElemScale{LayerName: "es", Scale: tensor.MustFromSlice([]float64{2, -0.5, 1}, 3)}
	op, err := Quantize(es, F)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float64{1, 4, -2}, 3)
	want, _ := es.Forward(x)
	ct := encryptFloats(t, k, x, F)
	outCT, err := ApplyStage(paillier.NewEvaluator(&k.PublicKey, nil), []Op{op}, ct, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := decryptFloats(t, k, outCT, F, 2)
	if !tensor.AllClose(want, got, 0.01) {
		t.Errorf("elem scale diverges: got %v want %v", got.Data(), want.Data())
	}
}

func TestQFlattenNoScaleStep(t *testing.T) {
	fl := nn.NewFlatten("f")
	op, err := Quantize(fl, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ScaleSteps([]nn.Layer{fl}) != 0 {
		t.Error("flatten must not change scale")
	}
	out, err := op.OutShape(tensor.Shape{2, 3})
	if err != nil || !out.Equal(tensor.Shape{6}) {
		t.Errorf("flatten out shape %v (%v)", out, err)
	}
}

// TestApplyStageMergedLinear runs a conv+flatten+FC merged stage
// homomorphically and checks against the float pipeline, verifying scale
// exponent accumulation across ops.
func TestApplyStageMergedLinear(t *testing.T) {
	k := key(t)
	const F = 100
	r := rng()
	p := tensor.ConvParams{InC: 1, InH: 4, InW: 4, OutC: 2, KH: 2, KW: 2, Stride: 2}
	conv, err := nn.NewConv("c", p, r)
	if err != nil {
		t.Fatal(err)
	}
	fl := nn.NewFlatten("fl")
	fc := nn.NewFC("fc", 8, 3, r)
	stage := &nn.PrimitiveLayer{Kind: nn.Linear, Layers: []nn.Layer{conv, fl, fc}}
	ops, err := QuantizeStage(stage, F)
	if err != nil {
		t.Fatal(err)
	}
	if got := ScaleSteps(stage.Layers); got != 2 {
		t.Fatalf("stage scale steps %d, want 2", got)
	}
	x := tensor.Zeros(1, 4, 4)
	for i := range x.Data() {
		x.Data()[i] = r.Float64() - 0.5
	}
	want, err := stage.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	ct := encryptFloats(t, k, x, F)
	outCT, err := ApplyStage(paillier.NewEvaluator(&k.PublicKey, nil), ops, ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := decryptFloats(t, k, outCT, F, 1+ScaleSteps(stage.Layers))
	// F=100 is coarse; tolerance reflects quantization error.
	if !tensor.AllClose(want, got, 0.15) {
		t.Errorf("merged stage diverges:\n got %v\nwant %v", got.Data(), want.Data())
	}
}

// TestApplyStagePlainMatchesCipher checks the plaintext big-int path and
// the ciphertext path produce identical integers.
func TestApplyStagePlainMatchesCipher(t *testing.T) {
	k := key(t)
	const F = 100
	fc := nn.NewFC("fc", 3, 2, rng())
	ops, err := QuantizeStage(&nn.PrimitiveLayer{Kind: nn.Linear, Layers: []nn.Layer{fc}}, F)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float64{0.25, -0.75, 1.5}, 3)
	scaled := ScaleInput(x, F)
	bigIn := tensor.Map(scaled, func(v int64) *big.Int { return big.NewInt(v) })
	plainOut, err := ApplyStagePlain(ops, bigIn)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.EncryptTensor(rand.Reader, scaled, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cipherOut, err := ApplyStage(paillier.NewEvaluator(&k.PublicKey, nil), ops, ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := paillier.DecryptTensorBig(k, cipherOut, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plainOut.Data() {
		if plainOut.AtFlat(i).Cmp(dec.AtFlat(i)) != 0 {
			t.Errorf("element %d: plain %v, cipher %v", i, plainOut.AtFlat(i), dec.AtFlat(i))
		}
	}
}

func TestScaleInputDescaleRoundTrip(t *testing.T) {
	const F = 1000
	x := tensor.MustFromSlice([]float64{0.125, -3.5, 7}, 3)
	scaled := ScaleInput(x, F)
	bigT := tensor.Map(scaled, func(v int64) *big.Int { return big.NewInt(v) })
	back, err := Descale(bigT, F, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(x, back, 1.0/F) {
		t.Errorf("round trip %v -> %v", x.Data(), back.Data())
	}
	if _, err := Descale(bigT, F, -1); err == nil {
		t.Error("negative exponent accepted")
	}
}

func TestGatherRowsMatchesIm2Col(t *testing.T) {
	p := tensor.ConvParams{InC: 2, InH: 5, InW: 5, OutC: 1, KH: 3, KW: 3, Stride: 2, Pad: 1}
	x := tensor.Zeros(p.InC, p.InH, p.InW)
	for i := range x.Data() {
		x.Data()[i] = float64(i)
	}
	cols, err := tensor.Im2Col(x, p)
	if err != nil {
		t.Fatal(err)
	}
	rows := GatherRows(p)
	if len(rows) != cols.Shape()[0] {
		t.Fatalf("row count %d vs %d", len(rows), cols.Shape()[0])
	}
	for pos, row := range rows {
		for k, off := range row {
			want := cols.At(pos, k)
			var got float64
			if off >= 0 {
				got = x.Data()[off]
			}
			if got != want {
				t.Fatalf("pos %d k %d: gather %v, im2col %v", pos, k, got, want)
			}
		}
	}
}

func TestSplitOutputs(t *testing.T) {
	ranges := SplitOutputs(10, 3)
	want := []Range{{0, 4}, {4, 7}, {7, 10}}
	if len(ranges) != len(want) {
		t.Fatalf("got %d ranges", len(ranges))
	}
	for i, r := range want {
		if ranges[i] != r {
			t.Errorf("range %d = %+v, want %+v", i, ranges[i], r)
		}
	}
	// more threads than elements: capped
	if got := SplitOutputs(2, 8); len(got) != 2 {
		t.Errorf("overcommitted split gave %d ranges", len(got))
	}
	if SplitOutputs(0, 3) != nil {
		t.Error("empty output should give nil")
	}
	if SplitOutputs(3, 0) != nil {
		t.Error("zero threads should give nil")
	}
}

// Property: SplitOutputs covers [0,n) exactly once, in order, with
// non-empty ranges whose lengths differ by at most one.
func TestSplitOutputsProperty(t *testing.T) {
	f := func(nRaw, tRaw uint8) bool {
		n, th := int(nRaw%100)+1, int(tRaw%16)+1
		ranges := SplitOutputs(n, th)
		next := 0
		for _, r := range ranges {
			if r.Lo != next || r.Hi <= r.Lo || (ranges[0].Hi-ranges[0].Lo)-(r.Hi-r.Lo) > 1 {
				return false
			}
			next = r.Hi
		}
		return next == n && len(ranges) == min(n, th)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
