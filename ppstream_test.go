package ppstream

import (
	mathrand "math/rand"
	"os"
	"path/filepath"
	"testing"

	"ppstream/internal/nn"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	key, err := GenerateKey(256)
	if err != nil {
		t.Fatal(err)
	}
	r := mathrand.New(mathrand.NewSource(90))
	net, err := nn.NewNetwork("api-test", Shape{4},
		nn.NewFC("fc1", 4, 6, r),
		nn.NewReLU("relu"),
		nn.NewFC("fc2", 6, 2, r),
		nn.NewSoftMax("sm"),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Self-labelled selection set.
	var xs []*Tensor
	var ys []int
	for i := 0; i < 10; i++ {
		x := NewTensor(4)
		for j := range x.Data() {
			x.Data()[j] = r.NormFloat64()
		}
		p, err := net.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		xs, ys = append(xs, x), append(ys, p)
	}
	res, err := SelectScalingFactor(net, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(net, key, Options{Factor: res.Factor})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	out, lat, err := eng.InferOne(1, xs[0])
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 || out == nil {
		t.Error("inference produced no timing or output")
	}
	want, _ := net.Forward(xs[0])
	if ArgMax(want) != ArgMax(out) {
		t.Error("public API inference disagrees with plain forward")
	}
}

func TestPublicModelRegistry(t *testing.T) {
	if len(Models()) != 9 {
		t.Errorf("%d models, want 9", len(Models()))
	}
	spec, err := ModelByName("Breast")
	if err != nil || spec.Arch != "3FC" {
		t.Errorf("ModelByName: %+v, %v", spec, err)
	}
}

func TestSaveLoadModelFiles(t *testing.T) {
	r := mathrand.New(mathrand.NewSource(91))
	net, err := nn.NewNetwork("persist", Shape{2},
		nn.NewFC("fc", 2, 2, r), nn.NewSoftMax("sm"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveModel(net, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ModelName != "persist" {
		t.Error("model name lost")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestMeasureLeakagePublic(t *testing.T) {
	x := NewTensor(64)
	r := mathrand.New(mathrand.NewSource(92))
	for i := range x.Data() {
		x.Data()[i] = r.NormFloat64()
	}
	d, err := MeasureLeakage(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d >= 1 {
		t.Errorf("leakage %v out of (0,1)", d)
	}
}

func TestTensorHelpers(t *testing.T) {
	tt, err := TensorFromSlice([]float64{1, 9, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ArgMax(tt) != 1 {
		t.Errorf("ArgMax = %d", ArgMax(tt))
	}
	if _, err := TensorFromSlice([]float64{1}, 2); err == nil {
		t.Error("bad shape accepted")
	}
}
