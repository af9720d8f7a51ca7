package partition

import (
	"crypto/rand"
	mathrand "math/rand"
	"sync"
	"testing"
	"testing/quick"

	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/qnn"
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

func TestSplitOutputs(t *testing.T) {
	ranges := SplitOutputs(10, 3)
	if len(ranges) != 3 {
		t.Fatalf("got %d ranges", len(ranges))
	}
	want := []Range{{0, 4}, {4, 7}, {7, 10}}
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

// Property: SplitOutputs covers [0,n) exactly once, in order.
func TestSplitOutputsProperty(t *testing.T) {
	f := func(nRaw, tRaw uint8) bool {
		n, th := int(nRaw%100)+1, int(tRaw%16)+1
		ranges := SplitOutputs(n, th)
		next := 0
		for _, r := range ranges {
			if r.Lo != next || r.Hi <= r.Lo {
				return false
			}
			next = r.Hi
		}
		return next == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFigure5Partitioning reproduces the paper's Figure 5(b): a 3×3 input
// with a 2×2 filter and two threads — each thread produces 2 of the 4
// output elements and receives only 6 of the 9 input elements.
func TestFigure5Partitioning(t *testing.T) {
	p := tensor.ConvParams{InC: 1, InH: 3, InW: 3, OutC: 1, KH: 2, KW: 2, Stride: 1}
	r := mathrand.New(mathrand.NewSource(1))
	conv, err := nn.NewConv("c", p, r)
	if err != nil {
		t.Fatal(err)
	}
	op, err := qnn.Quantize(conv, 100)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := PlanOp(op.(qnn.ElementOp), tensor.Shape{1, 3, 3}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 {
		t.Fatalf("%d tasks", len(tasks))
	}
	for i, task := range tasks {
		if task.Len() != 2 {
			t.Errorf("thread %d produces %d elements, want 2", i, task.Len())
		}
		if len(task.Inputs) != 6 {
			t.Errorf("thread %d receives %d input elements, want 6 (Figure 5b)", i, len(task.Inputs))
		}
	}
}

func TestPlanOpFCNeedsWholeInput(t *testing.T) {
	fc := nn.NewFC("fc", 6, 4, mathrand.New(mathrand.NewSource(2)))
	op, _ := qnn.Quantize(fc, 100)
	tasks, err := PlanOp(op.(qnn.ElementOp), tensor.Shape{6}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if task.Inputs != nil {
			t.Error("FC thread should require the whole input (output partitioning only)")
		}
	}
}

// TestExecuteMatchesReference: partitioned execution — one kernel per
// task — decrypts identically to the unpartitioned Op.Apply for FC and
// conv at 1, 2 and 3 threads, with and without input partitioning, and
// inverts each input at most once per thread (the one-row path it
// replaced inverted once per negative weight per element).
func TestExecuteMatchesReference(t *testing.T) {
	k := key(t)
	const F = 100
	r := mathrand.New(mathrand.NewSource(5))
	p := tensor.ConvParams{InC: 1, InH: 4, InW: 4, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv, err := nn.NewConv("c", p, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		layer nn.Layer
		in    tensor.Shape
	}{
		{conv, tensor.Shape{1, 4, 4}},
		{nn.NewFC("fc", 16, 5, r), tensor.Shape{16}},
	} {
		op, err := qnn.Quantize(c.layer, F)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.Zeros(c.in...)
		for i := range x.Data() {
			x.Data()[i] = float64(i%7)/7 - 0.5
		}
		ct, err := paillier.EncryptTensor(&k.PublicKey, k.Blinder(rand.Reader), qnn.ScaleInput(x, F), 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := op.Apply(paillier.NewEvaluator(&k.PublicKey), ct, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		refDec, err := paillier.DecryptTensorBig(k, ref, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2, 3} {
			for _, inputPart := range []bool{false, true} {
				var m obs.CostMeter
				ev := paillier.NewEvaluator(&k.PublicKey, paillier.WithCostMeter(&m))
				out, stats, err := Execute(ev, op.(qnn.ElementOp), ct, 1, threads, inputPart)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := paillier.DecryptTensorBig(k, out, 4)
				if err != nil {
					t.Fatal(err)
				}
				for i := range refDec.Data() {
					if refDec.AtFlat(i).Cmp(dec.AtFlat(i)) != 0 {
						t.Fatalf("%s threads=%d inputPart=%v element %d differs", op.Name(), threads, inputPart, i)
					}
				}
				if inv := m.Snapshot().ModInverses; inv > uint64(threads*c.in.Size()) {
					t.Errorf("%s threads=%d inputPart=%v: %d modinverses for %d inputs", op.Name(), threads, inputPart, inv, c.in.Size())
				}
				// At 3 threads a task no longer spans a whole filter, so its
				// receptive fields stop covering the whole input.
				_, isConv := c.layer.(*nn.Conv)
				if inputPart && isConv && threads == 3 {
					if stats.ElementsSent >= stats.ElementsTotal || stats.Saved() <= 0 {
						t.Errorf("input partitioning saved nothing: %+v", stats)
					}
				} else if stats.ElementsSent != stats.ElementsTotal {
					t.Errorf("%s threads=%d inputPart=%v should send everything: %+v", op.Name(), threads, inputPart, stats)
				}
			}
		}
	}
}

func TestExecuteStageSequence(t *testing.T) {
	k := key(t)
	const F = 100
	r := mathrand.New(mathrand.NewSource(6))
	p := tensor.ConvParams{InC: 1, InH: 4, InW: 4, OutC: 2, KH: 2, KW: 2, Stride: 2}
	conv, err := nn.NewConv("c", p, r)
	if err != nil {
		t.Fatal(err)
	}
	fl := nn.NewFlatten("fl")
	fc := nn.NewFC("fc", 8, 3, r)
	stage := &nn.PrimitiveLayer{Kind: nn.Linear, Layers: []nn.Layer{conv, fl, fc}}
	ops, err := qnn.QuantizeStage(stage, F)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Zeros(1, 4, 4)
	for i := range x.Data() {
		x.Data()[i] = r.Float64() - 0.5
	}
	scaled := qnn.ScaleInput(x, F)
	ct, err := paillier.EncryptTensor(&k.PublicKey, k.Blinder(rand.Reader), scaled, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, exp, stats, err := ExecuteStage(paillier.NewEvaluator(&k.PublicKey), ops, ct, 1, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if exp != 3 {
		t.Errorf("exponent %d, want 3", exp)
	}
	if len(stats) != 3 {
		t.Errorf("stats for %d ops, want 3", len(stats))
	}
	// compare against the reference path
	refOut, refExp, err := qnn.ApplyStage(paillier.NewEvaluator(&k.PublicKey), ops, ct, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if refExp != exp {
		t.Fatalf("exp mismatch %d vs %d", refExp, exp)
	}
	refDec, _ := paillier.DecryptTensorBig(k, refOut, 4)
	dec, _ := paillier.DecryptTensorBig(k, out, 4)
	for i := range refDec.Data() {
		if refDec.AtFlat(i).Cmp(dec.AtFlat(i)) != 0 {
			t.Fatalf("element %d differs from reference", i)
		}
	}
}

func TestCommStatsSaved(t *testing.T) {
	s := CommStats{ElementsSent: 25, ElementsTotal: 100}
	if s.Saved() != 0.75 {
		t.Errorf("Saved = %v", s.Saved())
	}
	if (CommStats{}).Saved() != 0 {
		t.Error("empty stats should save 0")
	}
}
