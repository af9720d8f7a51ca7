package qnn

import (
	"crypto/rand"
	"math/big"
	"testing"

	"ppstream/internal/nn"
	"ppstream/internal/paillier"
	"ppstream/internal/tensor"
)

// TestElementOpsMatchApply verifies each op's per-range path equals its
// bulk Apply path — the invariant the partitioning executor relies on.
func TestElementOpsMatchApply(t *testing.T) {
	k := key(t)
	const F = 100
	r := rng()
	cases := []struct {
		name  string
		layer nn.Layer
		in    tensor.Shape
	}{
		{"fc", nn.NewFC("fc", 6, 4, r), tensor.Shape{6}},
		{"flatten", nn.NewFlatten("fl"), tensor.Shape{2, 3}},
	}
	conv, err := nn.NewConv("c", tensor.ConvParams{InC: 1, InH: 4, InW: 4, OutC: 2, KH: 2, KW: 2, Stride: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		name  string
		layer nn.Layer
		in    tensor.Shape
	}{"conv", conv, tensor.Shape{1, 4, 4}})
	bn := nn.NewBatchNorm("bn", 2)
	bn.Gamma = tensor.MustFromSlice([]float64{1.5, 0.5}, 2)
	cases = append(cases, struct {
		name  string
		layer nn.Layer
		in    tensor.Shape
	}{"batchnorm", bn, tensor.Shape{2, 2, 2}})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			op, err := Quantize(c.layer, F)
			if err != nil {
				t.Fatal(err)
			}
			eop, ok := op.(ElementOp)
			if !ok {
				t.Fatalf("%s does not implement ElementOp", c.name)
			}
			x := tensor.Zeros(c.in...)
			for i := range x.Data() {
				x.Data()[i] = r.Float64() - 0.5
			}
			ct, err := paillier.EncryptTensor(&k.PublicKey, k.Blinder(rand.Reader), ScaleInput(x, F), 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			bulk, err := op.Apply(paillier.NewEvaluator(&k.PublicKey), ct, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			bulkDec, err := paillier.DecryptTensorBig(k, bulk, 2)
			if err != nil {
				t.Fatal(err)
			}
			n, err := eop.OutSize(c.in)
			if err != nil {
				t.Fatal(err)
			}
			if n != bulk.Size() {
				t.Fatalf("OutSize %d vs Apply size %d", n, bulk.Size())
			}
			xs := ct.Flatten().Data()
			check := func(lo, hi int, view []*paillier.Ciphertext) {
				t.Helper()
				elems := make([]*paillier.Ciphertext, hi-lo)
				if err := eop.ComputeRange(paillier.NewEvaluator(&k.PublicKey), view, c.in, lo, hi, 1, elems); err != nil {
					t.Fatalf("%s elements [%d,%d): %v", c.name, lo, hi, err)
				}
				for i, elem := range elems {
					got, err := k.Decrypt(elem)
					if err != nil {
						t.Fatal(err)
					}
					if got.Cmp(bulkDec.AtFlat(lo+i)) != 0 {
						t.Fatalf("%s element %d: %v vs bulk %v", c.name, lo+i, got, bulkDec.AtFlat(lo+i))
					}
				}
			}
			// One kernel over the whole input for the whole range, and for
			// a proper sub-range.
			check(0, n, xs)
			check(n/3, n-1, xs)
			// InputNeeds must cover every offset an element reads: a view
			// holding only those offsets suffices, an empty one does not.
			for idx := 0; idx < n; idx++ {
				needs := eop.InputNeeds(c.in, idx)
				if needs == nil {
					continue
				}
				view := make([]*paillier.Ciphertext, len(xs))
				for _, off := range needs {
					view[off] = xs[off]
				}
				check(idx, idx+1, view)
				empty := make([]*paillier.Ciphertext, len(xs))
				if err := eop.ComputeRange(paillier.NewEvaluator(&k.PublicKey), empty, c.in, idx, idx+1, 1, make([]*paillier.Ciphertext, 1)); err == nil {
					t.Fatalf("%s element %d computed from a view it was sent nothing of", c.name, idx)
				}
			}
		})
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
		ct, err := paillier.EncryptTensor(&k.PublicKey, k.Blinder(rand.Reader), scaled, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		cipher, err := op.Apply(paillier.NewEvaluator(&k.PublicKey), ct, 1, 2)
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
	if _, err := fc.(ElementOp).OutSize(tensor.Shape{5}); err == nil {
		t.Error("FC OutSize wrong shape accepted")
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
	if _, err := bn.Apply(paillier.NewEvaluator(&k.PublicKey), tensor.New[*paillier.Ciphertext](2, 2), 1, 1); err == nil {
		t.Error("affine apply with unmappable shape accepted")
	}
}

func TestQuantizeStageRejectsNonLinear(t *testing.T) {
	p := &nn.PrimitiveLayer{Kind: nn.NonLinear, Layers: []nn.Layer{nn.NewReLU("r")}}
	if _, err := QuantizeStage(p, 10); err == nil {
		t.Error("non-linear stage quantized")
	}
}
