package qnn

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"ppstream/internal/models"
	"ppstream/internal/nn"
	"ppstream/internal/paillier"
	"ppstream/internal/tensor"
)

// opCase is one op of every kind over an input shape it accepts; the conv
// pads and strides, so its receptive fields are clipped and sparse.
type opCase struct {
	name string
	op   Op
	in   tensor.Shape
}

func opCases(t *testing.T) []opCase {
	t.Helper()
	r := rng()
	conv, err := nn.NewConv("c", tensor.ConvParams{InC: 2, InH: 5, InW: 5, OutC: 2, KH: 3, KW: 3, Stride: 2, Pad: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	bn := nn.NewBatchNorm("bn", 2)
	bn.Gamma = tensor.MustFromSlice([]float64{1.5, -0.5}, 2)
	bn.Beta = tensor.MustFromSlice([]float64{0.25, 0}, 2)
	var cases []opCase
	for _, c := range []struct {
		name  string
		layer nn.Layer
		in    tensor.Shape
	}{
		{"fc", nn.NewFC("fc", 6, 4, r), tensor.Shape{6}},
		{"flatten", nn.NewFlatten("fl"), tensor.Shape{2, 3}},
		{"conv", conv, tensor.Shape{2, 5, 5}},
		{"batchnorm", bn, tensor.Shape{2, 2, 2}},
	} {
		op, err := Quantize(c.layer, 100)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, opCase{c.name, op, c.in})
	}
	return cases
}

// encryptZeros encrypts a zero tensor of the shape: every ciphertext is a
// distinct random element, which is all the ring-element comparisons need.
func encryptZeros(t *testing.T, k *paillier.PrivateKey, shape tensor.Shape) *paillier.CipherTensor {
	t.Helper()
	ct, err := k.EncryptTensor(rand.Reader, tensor.New[int64](shape...), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// applyRange runs op.ApplyRange over elements [lo, hi) and returns them.
func applyRange(t *testing.T, k *paillier.PrivateKey, op Op, xs []*paillier.Ciphertext, in tensor.Shape, lo, hi int) []*paillier.Ciphertext {
	t.Helper()
	out := make([]*paillier.Ciphertext, hi-lo)
	if err := op.ApplyRange(paillier.NewEvaluator(&k.PublicKey, nil), xs, in, lo, hi, 1, out); err != nil {
		t.Fatalf("%s elements [%d,%d): %v", op.Name(), lo, hi, err)
	}
	return out
}

// sameRing fails unless got and want hold the same elements of Z_{n²}.
// Kernel rows are unblinded, hence deterministic, so a split that changes
// nothing changes no bit.
func sameRing(t *testing.T, what string, got, want []*paillier.Ciphertext) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Value().Cmp(want[i].Value()) != 0 {
			t.Fatalf("%s: element %d differs", what, i)
		}
	}
}

// TestElementOpsMatchApply: each op's ApplyRange over a proper sub-range
// returns the ring elements the whole range does — what ApplyStage's split
// relies on.
func TestElementOpsMatchApply(t *testing.T) {
	k := key(t)
	for _, c := range opCases(t) {
		t.Run(c.name, func(t *testing.T) {
			out, err := c.op.OutShape(c.in)
			if err != nil {
				t.Fatal(err)
			}
			n, xs := out.Size(), encryptZeros(t, k, c.in).Data()
			whole := applyRange(t, k, c.op, xs, c.in, 0, n)
			for _, r := range []Range{{n / 3, n - 1}, {n - 1, n}} {
				sameRing(t, fmt.Sprintf("%s [%d,%d)", c.name, r.Lo, r.Hi), applyRange(t, k, c.op, xs, c.in, r.Lo, r.Hi), whole[r.Lo:r.Hi])
			}
		})
	}
}

// TestInputNeedsCoverWhatTheKernelReads: every input offset an output
// element's evaluation reads is among InputNeeds for that element, which
// is what StageComm's partitioned volume counts. A conv's kernel row
// indexes only its needs, and for every op an element computed over an
// input whose other offsets hold different ciphertexts is unchanged.
func TestInputNeedsCoverWhatTheKernelReads(t *testing.T) {
	k := key(t)
	for _, c := range opCases(t) {
		if c.name == "fc" {
			continue // reads the whole input: InputNeeds is nil
		}
		out, err := c.op.OutShape(c.in)
		if err != nil {
			t.Fatal(err)
		}
		xs, poison := encryptZeros(t, k, c.in).Data(), encryptZeros(t, k, c.in).Data()
		whole := applyRange(t, k, c.op, xs, c.in, 0, out.Size())
		for idx := range whole {
			needs := map[int]bool{}
			for _, off := range c.op.InputNeeds(c.in, idx) {
				needs[off] = true
			}
			if conv, ok := c.op.(*QConv); ok {
				for _, off := range conv.kernelRows(idx, idx+1, 1)[0].Idx {
					if !needs[off] {
						t.Fatalf("%s element %d: kernel row reads input %d outside its needs", c.name, idx, off)
					}
				}
			}
			masked := append([]*paillier.Ciphertext(nil), poison...)
			for off := range needs {
				masked[off] = xs[off]
			}
			sameRing(t, fmt.Sprintf("%s element %d over its needs only", c.name, idx), applyRange(t, k, c.op, masked, c.in, idx, idx+1), whole[idx:idx+1])
		}
	}
}

// TestApplyStageOutputsDoNotDependOnTheSplit: ApplyStage at 2, 3, 4 and
// more threads than outputs returns the ring elements it returns at one
// thread, for every op kind and every linear stage of Heart, MNIST-1 and
// MNIST-2.
func TestApplyStageOutputsDoNotDependOnTheSplit(t *testing.T) {
	k := key(t)
	type stage struct {
		name string
		ops  []Op
		in   tensor.Shape
	}
	var stages []stage
	for _, c := range opCases(t) {
		stages = append(stages, stage{c.name, []Op{c.op}, c.in})
	}
	for _, model := range []string{"Heart", "MNIST-1", "MNIST-2"} {
		spec, err := models.ByName(model)
		if err != nil {
			t.Fatal(err)
		}
		net, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		merged, err := nn.Merge(net)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range merged {
			if m.Kind != nn.Linear {
				continue
			}
			ops, err := QuantizeStage(m, 100)
			if err != nil {
				t.Fatal(err)
			}
			stages = append(stages, stage{model + "/" + m.Name(), ops, m.InShape})
		}
	}
	for _, st := range stages {
		x := encryptZeros(t, k, st.in)
		want, wantExp, err := ApplyStage(paillier.NewEvaluator(&k.PublicKey, nil), st.ops, x, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		most, shape := 0, st.in
		for _, op := range st.ops {
			if shape, err = op.OutShape(shape); err != nil {
				t.Fatal(err)
			}
			most = max(most, shape.Size())
		}
		for _, threads := range []int{2, 3, 4, most + 1} {
			got, exp, err := ApplyStage(paillier.NewEvaluator(&k.PublicKey, nil), st.ops, x, 1, threads)
			if err != nil {
				t.Fatalf("%s at %d threads: %v", st.name, threads, err)
			}
			if exp != wantExp || !got.Shape().Equal(want.Shape()) {
				t.Fatalf("%s at %d threads: shape %v exp %d, want %v exp %d", st.name, threads, got.Shape(), exp, want.Shape(), wantExp)
			}
			sameRing(t, fmt.Sprintf("%s at %d threads", st.name, threads), got.Data(), want.Data())
		}
	}
}

// TestApplyPlainMatchesCipherAllOps checks the plaintext big-int path for
// conv and affine ops (the FC case is covered in qnn_test.go).
func TestApplyPlainMatchesCipherAllOps(t *testing.T) {
	k := key(t)
	const F = 100
	r := rng()
	conv, err := nn.NewConv("c", tensor.ConvParams{InC: 1, InH: 3, InW: 3, OutC: 1, KH: 2, KW: 2, Stride: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	bn := nn.NewBatchNorm("bn", 1)
	bn.Beta = tensor.MustFromSlice([]float64{0.5}, 1)
	for _, layer := range []nn.Layer{conv, bn, nn.NewFlatten("fl")} {
		op, err := Quantize(layer, F)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.Zeros(1, 3, 3)
		for i := range x.Data() {
			x.Data()[i] = r.Float64()
		}
		scaled := ScaleInput(x, F)
		bigIn := tensor.Map(scaled, func(v int64) *big.Int { return big.NewInt(v) })
		plain, err := op.ApplyPlain(bigIn, 1)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := k.EncryptTensor(rand.Reader, scaled, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		cipher, _, err := ApplyStage(paillier.NewEvaluator(&k.PublicKey, nil), []Op{op}, ct, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := paillier.DecryptTensorBig(k, cipher, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain.Data() {
			if plain.AtFlat(i).Cmp(dec.AtFlat(i)) != 0 {
				t.Fatalf("%s element %d: plain %v cipher %v", op.Name(), i, plain.AtFlat(i), dec.AtFlat(i))
			}
		}
	}
}

func TestOpShapeErrors(t *testing.T) {
	r := rng()
	fc, _ := Quantize(nn.NewFC("fc", 4, 2, r), 10)
	if _, err := fc.OutShape(tensor.Shape{5}); err == nil {
		t.Error("FC wrong input shape accepted")
	}
	conv, err := nn.NewConv("c", tensor.ConvParams{InC: 1, InH: 3, InW: 3, OutC: 1, KH: 2, KW: 2, Stride: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	qc, _ := Quantize(conv, 10)
	if _, err := qc.OutShape(tensor.Shape{2, 3, 3}); err == nil {
		t.Error("conv wrong input size accepted")
	}
	bn, _ := Quantize(nn.NewBatchNorm("bn", 3), 10)
	if _, err := bn.OutShape(tensor.Shape{2, 2}); err == nil {
		t.Error("affine unmappable shape accepted")
	}
	k := key(t)
	if _, _, err := ApplyStage(paillier.NewEvaluator(&k.PublicKey, nil), []Op{bn}, tensor.New[*paillier.Ciphertext](2, 2), 1, 1); err == nil {
		t.Error("affine apply with unmappable shape accepted")
	}
}

func TestQuantizeStageRejectsNonLinear(t *testing.T) {
	p := &nn.PrimitiveLayer{Kind: nn.NonLinear, Layers: []nn.Layer{nn.NewReLU("r")}}
	if _, err := QuantizeStage(p, 10); err == nil {
		t.Error("non-linear stage quantized")
	}
}
