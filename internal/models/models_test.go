package models

import (
	"testing"

	"ppstream/internal/nn"
)

func TestRegistryCoversTableIII(t *testing.T) {
	specs := All()
	if len(specs) != 9 {
		t.Fatalf("registry has %d models, Table III lists 9", len(specs))
	}
	wantArch := map[string]string{
		"Breast": "3FC", "Heart": "3FC", "Cardio": "3FC",
		"MNIST-1": "3FC", "MNIST-2": "1Conv+2FC", "MNIST-3": "2Conv+2FC",
		"CIFAR-10-1": "VGG13", "CIFAR-10-2": "VGG16", "CIFAR-10-3": "VGG19",
	}
	for _, s := range specs {
		if wantArch[s.Name] != s.Arch {
			t.Errorf("%s arch %q, want %q", s.Name, s.Arch, wantArch[s.Name])
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("MNIST-2")
	if err != nil || s.Arch != "1Conv+2FC" {
		t.Errorf("ByName(MNIST-2) = %+v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestSampleScaling(t *testing.T) {
	s := Spec{PaperTrain: 60000, PaperTest: 10000, SampleScale: 0.01}
	if s.TrainCount() != 600 || s.TestCount() != 100 {
		t.Errorf("scaled counts %d/%d", s.TrainCount(), s.TestCount())
	}
	full := Spec{PaperTrain: 456, PaperTest: 113, SampleScale: 1}
	if full.TrainCount() != 456 || full.TestCount() != 113 {
		t.Errorf("full-scale counts %d/%d", full.TrainCount(), full.TestCount())
	}
	tiny := Spec{PaperTrain: 100, PaperTest: 100, SampleScale: 0.0001}
	if tiny.TrainCount() < 8 {
		t.Error("scaled counts should be floored at 8")
	}
}

func TestBuildAllArchitectures(t *testing.T) {
	for _, s := range All() {
		net, err := s.Build()
		if err != nil {
			t.Errorf("%s build: %v", s.Name, err)
			continue
		}
		if err := net.Validate(); err != nil {
			t.Errorf("%s validate: %v", s.Name, err)
		}
		// The declared input domain is the dataset's guarantee, which
		// dataset.Validate has checked on every sample.
		ds, err := s.Dataset()
		if err != nil {
			t.Errorf("%s dataset: %v", s.Name, err)
			continue
		}
		if net.InputMax <= 0 || net.InputMax != ds.InputMax {
			t.Errorf("%s declares input domain ±%v, its dataset guarantees ±%v", s.Name, net.InputMax, ds.InputMax)
		}
		// each model must merge into an alternating protocol-shaped chain
		merged, err := nn.Merge(net)
		if err != nil {
			t.Errorf("%s merge: %v", s.Name, err)
			continue
		}
		if err := nn.CheckAlternating(merged); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if err := nn.ProtocolShape(merged); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestVGGDepths(t *testing.T) {
	counts := map[string]int{"CIFAR-10-1": 10, "CIFAR-10-2": 13, "CIFAR-10-3": 16}
	for name, wantConvs := range counts {
		s, _ := ByName(name)
		net, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		convs := 0
		for _, l := range net.Layers {
			if c, ok := l.(*nn.Conv); ok && c.P.Stride == 1 {
				convs++
			}
		}
		if convs != wantConvs {
			t.Errorf("%s has %d 3x3 convs, want %d", name, convs, wantConvs)
		}
	}
}

func TestHealthcarePredicate(t *testing.T) {
	for _, s := range All() {
		want := s.Name == "Breast" || s.Name == "Heart" || s.Name == "Cardio"
		if s.Healthcare() != want {
			t.Errorf("%s Healthcare() = %v", s.Name, s.Healthcare())
		}
	}
}

// TestPrepareSmallModel trains the smallest model end-to-end and checks
// it learns above chance.
func TestPrepareSmallModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	s, _ := ByName("Heart")
	net, ds, err := Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := net.Accuracy(ds.TestX, ds.TestY)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Errorf("Heart test accuracy %.3f < 0.8", acc)
	}
}
