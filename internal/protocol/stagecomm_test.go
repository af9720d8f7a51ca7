package protocol

import (
	mathrand "math/rand"
	"testing"

	"ppstream/internal/models"
	"ppstream/internal/nn"
	"ppstream/internal/qnn"
	"ppstream/internal/tensor"
)

// TestFigure5Partitioning reproduces the paper's Figure 5(b): a 3×3 input
// with a 2×2 filter and two threads — each thread produces 2 of the 4
// output elements and receives only 6 of the 9 input elements.
func TestFigure5Partitioning(t *testing.T) {
	p := tensor.ConvParams{InC: 1, InH: 3, InW: 3, OutC: 1, KH: 2, KW: 2, Stride: 1}
	conv, err := nn.NewConv("c", p, mathrand.New(mathrand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	op, err := qnn.Quantize(conv, 100)
	if err != nil {
		t.Fatal(err)
	}
	tasks := planOp(op, tensor.Shape{1, 3, 3}, 4, 2)
	if len(tasks) != 2 {
		t.Fatalf("%d tasks", len(tasks))
	}
	for i, task := range tasks {
		if n := task.Hi - task.Lo; n != 2 {
			t.Errorf("thread %d produces %d elements, want 2", i, n)
		}
		if len(task.Inputs) != 6 {
			t.Errorf("thread %d receives %d input elements, want 6 (Figure 5b)", i, len(task.Inputs))
		}
	}
}

func TestPlanOpFCNeedsWholeInput(t *testing.T) {
	op, err := qnn.Quantize(nn.NewFC("fc", 6, 4, mathrand.New(mathrand.NewSource(2))), 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range planOp(op, tensor.Shape{6}, 4, 2) {
		if task.Inputs != nil {
			t.Error("FC thread should require the whole input (output partitioning only)")
		}
	}
}

// TestStageCommPinned pins StageComm's (withPart, withoutPart) for every
// linear stage of MNIST-2 and MNIST-3 at 1–4 threads: these are the
// communication volumes Figs 8 and 9 simulate.
func TestStageCommPinned(t *testing.T) {
	want := map[string][][4][2]int{
		"MNIST-2": {
			{{784, 921984}, {1568, 921984}, {2352, 921984}, {3136, 921984}},
			{{1176, 37632}, {2352, 37632}, {3528, 37632}, {4704, 37632}},
			{{32, 320}, {64, 320}, {96, 320}, {128, 320}},
		},
		"MNIST-3": {
			{{784, 921984}, {1568, 921984}, {2352, 921984}, {3136, 921984}},
			{{1176, 691488}, {2352, 691488}, {3528, 691488}, {4704, 691488}},
			{{588, 18816}, {1176, 18816}, {1764, 18816}, {2352, 18816}},
			{{32, 320}, {64, 320}, {96, 320}, {128, 320}},
		},
	}
	for name, rounds := range want {
		spec, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		net, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		mp, err := BuildModelProvider(net, &keyOfBits(t, 512).PublicKey, Config{Factor: 100})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(mp.stages); got != len(rounds) {
			t.Fatalf("%s: %d linear stages, want %d", name, got, len(rounds))
		}
		for r, byThreads := range rounds {
			for i, w := range byThreads {
				with, without, err := mp.StageComm(r, i+1)
				if err != nil {
					t.Fatal(err)
				}
				if with != w[0] || without != w[1] {
					t.Errorf("%s round %d at %d threads: StageComm (%d, %d), want (%d, %d)", name, r, i+1, with, without, w[0], w[1])
				}
			}
		}
	}
}
