package qnn

import (
	"crypto/rand"
	"testing"

	"ppstream/internal/models"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/tensor"
)

// TestModelLayersMeteredAtPlannedCount runs every dot-product layer of the
// benchmark's three models (real models.Spec.Build() weights at factor
// 100) whole and split in two, the way ApplyStage calls the kernel at one
// and at two threads, and requires that the meter reads exactly
// what paillier.CountRows predicted for each call — and that the count
// still sends each layer where it was sized to go: wide layers of narrow
// weights to buckets, short rows read many times to tables.
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
		shape := net.InputShape
		for _, l := range net.Layers {
			in := shape
			if shape, err = l.OutputShape(in); err != nil {
				t.Fatal(err)
			}
			q, err := Quantize(l, 100)
			if err != nil {
				continue // a non-linear layer
			}
			op, ok := q.(rowsOp)
			if !ok {
				continue // flatten
			}
			name := model + "/" + l.Name()
			x, err := paillier.EncryptTensor(&k.PublicKey, k.Blinder(rand.Reader), tensor.New[int64](in...), 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := shape.Size()
			for _, cut := range [][]int{{0, n}, {0, n / 2, n}} {
				for i := 1; i < len(cut); i++ {
					lo, hi := cut[i-1], cut[i]
					plan, err := paillier.CountRows(x.Size(), op.kernelRows(lo, hi, 1))
					if err != nil {
						t.Fatal(err)
					}
					var m obs.CostMeter
					out := make([]*paillier.Ciphertext, hi-lo)
					if err := op.ApplyRange(paillier.NewEvaluator(&k.PublicKey, paillier.WithCostMeter(&m)), x.Data(), in, lo, hi, 1, out); err != nil {
						t.Fatal(err)
					}
					if got, want := m.Snapshot(), (obs.CostStats{MulMods: plan.MulMods, ModInverses: plan.ModInverses}); got != want {
						t.Errorf("%s rows [%d,%d): metered %+v, planned %+v", name, lo, hi, got, plan)
					}
					if plan.ModInverses > 1 {
						t.Errorf("%s rows [%d,%d): %d inversions in one call", name, lo, hi, plan.ModInverses)
					}
					if len(cut) == 2 {
						if w := want[name]; plan.Strategy != w.strategy || plan.MulMods != w.mulMods {
							t.Errorf("%s: plan %+v, want %v at %d mulmods", name, plan, w.strategy, w.mulMods)
						}
					}
				}
			}
		}
	}
}
