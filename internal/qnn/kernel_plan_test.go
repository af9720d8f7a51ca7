package qnn

import (
	"crypto/rand"
	"testing"

	"ppstream/internal/models"
	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/tensor"
)

// TestModelLayersMeteredAtPlannedCount runs every layer with kernel rows
// of the benchmark's three models (real models.Spec.Build() weights at
// factor 100), and a BatchNorm with a negative scale and a zero shift,
// whole and split in two, the way ApplyStage calls the kernel at one and
// at two threads, and requires that the meter reads exactly what
// paillier.CountRows predicted for each call — and that the count still
// sends each layer where it was sized to go: wide layers of narrow weights
// to buckets, short rows read many times to tables.
func TestModelLayersMeteredAtPlannedCount(t *testing.T) {
	k := key(t)
	want := map[string]struct {
		strategy paillier.Strategy
		mulMods  uint64
	}{
		"Heart/fc1":     {paillier.Tables, 551},
		"Heart/fc2":     {paillier.Tables, 382},
		"Heart/fc3":     {paillier.Tables, 73},
		"MNIST-1/fc1":   {paillier.Buckets, 48256},
		"MNIST-1/fc2":   {paillier.Buckets, 3559},
		"MNIST-1/fc3":   {paillier.Buckets, 804},
		"MNIST-2/conv1": {paillier.Tables, 39794},
		"MNIST-2/fc1":   {paillier.Buckets, 35466},
		"MNIST-2/fc2":   {paillier.Buckets, 794},
		"affine/bn":     {paillier.Tables, 525},
	}
	type layer struct {
		name string
		l    nn.Layer
		in   tensor.Shape
	}
	bn := nn.NewBatchNorm("bn", 3)
	bn.Gamma = tensor.MustFromSlice([]float64{1.5, -0.75, 2}, 3)
	bn.Beta = tensor.MustFromSlice([]float64{0.25, 0, -1}, 3)
	layers := []layer{{"affine/bn", bn, tensor.Shape{3, 4, 4}}}
	for _, model := range []string{"Heart", "MNIST-1", "MNIST-2"} {
		spec, err := models.ByName(model)
		if err != nil {
			t.Fatal(err)
		}
		net, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		shape := net.InputShape
		for _, l := range net.Layers {
			layers = append(layers, layer{model + "/" + l.Name(), l, shape})
			if shape, err = l.OutputShape(shape); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, l := range layers {
		op, err := Quantize(l.l, 100)
		if err != nil {
			continue // a non-linear layer
		}
		out, err := op.OutShape(l.in)
		if err != nil {
			t.Fatal(err)
		}
		n := out.Size()
		if op.KernelRows(l.in, 0, n) == nil {
			continue // flatten
		}
		x, err := k.EncryptTensor(rand.Reader, tensor.New[int64](l.in...), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range [][]int{{0, n}, {0, n / 2, n}} {
			for i := 1; i < len(cut); i++ {
				lo, hi := cut[i-1], cut[i]
				plan, err := paillier.CountRows(x.Size(), op.KernelRows(l.in, lo, hi))
				if err != nil {
					t.Fatal(err)
				}
				var m obs.CostMeter
				got := make([]*paillier.Ciphertext, hi-lo)
				if err := ApplyRange(paillier.NewEvaluator(&k.PublicKey, nil).WithCost(&m), op, x.Data(), l.in, lo, hi, got); err != nil {
					t.Fatal(err)
				}
				if got, want := m.Snapshot(), (obs.CostStats{MulMods: plan.MulMods, ModInverses: plan.ModInverses}); got != want {
					t.Errorf("%s rows [%d,%d): metered %+v, planned %+v", l.name, lo, hi, got, plan)
				}
				if plan.ModInverses > 1 {
					t.Errorf("%s rows [%d,%d): %d inversions in one call", l.name, lo, hi, plan.ModInverses)
				}
				if len(cut) == 2 {
					if w := want[l.name]; plan.Strategy != w.strategy || plan.MulMods != w.mulMods {
						t.Errorf("%s: plan %+v, want %v at %d mulmods", l.name, plan, w.strategy, w.mulMods)
					}
				}
			}
		}
	}
}
