package dataset

import (
	"testing"

	"ppstream/internal/tensor"
)

func TestTabularGeneration(t *testing.T) {
	d, err := Tabular(TabularConfig{Name: "tab", Features: 13, Classes: 2, Train: 100, Test: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.TrainX) != 100 || len(d.TestX) != 30 {
		t.Errorf("sizes %d/%d", len(d.TrainX), len(d.TestX))
	}
	if !d.InputShape().Equal(tensor.Shape{13}) {
		t.Errorf("shape %v", d.InputShape())
	}
	// both classes present
	seen := map[int]bool{}
	for _, y := range d.TrainY {
		seen[y] = true
	}
	if len(seen) != 2 {
		t.Errorf("classes present: %v", seen)
	}
	// Features are clamped to the declared domain, and Validate holds
	// every sample to it.
	wide, err := Tabular(TabularConfig{Name: "wide", Features: 4, Classes: 2, Train: 50, Test: 5, Seed: 2, Separation: 500})
	if err != nil {
		t.Fatal(err)
	}
	clamped := 0
	for _, x := range wide.TrainX {
		for _, v := range x.Data() {
			if v == TabularMax || v == -TabularMax {
				clamped++
			}
		}
	}
	if wide.InputMax != TabularMax || clamped == 0 {
		t.Errorf("separation 500: domain ±%v, %d features at the clamp", wide.InputMax, clamped)
	}
	wide.TrainX[0].Data()[0] = TabularMax + 1
	if err := wide.Validate(); err == nil {
		t.Error("a sample outside the declared domain validated")
	}
}

func TestTabularDeterministic(t *testing.T) {
	cfg := TabularConfig{Name: "t", Features: 5, Classes: 3, Train: 20, Test: 5, Seed: 42}
	a, _ := Tabular(cfg)
	b, _ := Tabular(cfg)
	for i := range a.TrainX {
		if a.TrainY[i] != b.TrainY[i] {
			t.Fatal("labels differ across runs with same seed")
		}
		for j := range a.TrainX[i].Data() {
			if a.TrainX[i].Data()[j] != b.TrainX[i].Data()[j] {
				t.Fatal("features differ across runs with same seed")
			}
		}
	}
}

func TestTabularValidation(t *testing.T) {
	if _, err := Tabular(TabularConfig{Features: 0, Classes: 2, Train: 10}); err == nil {
		t.Error("zero features accepted")
	}
	if _, err := Tabular(TabularConfig{Features: 5, Classes: 1, Train: 10}); err == nil {
		t.Error("single class accepted")
	}
	if _, err := Tabular(TabularConfig{Features: 5, Classes: 2, Train: 0}); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestDigitsGeneration(t *testing.T) {
	d, err := Digits(ImageConfig{Name: "digits", Train: 50, Test: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !d.InputShape().Equal(tensor.Shape{1, 28, 28}) {
		t.Errorf("digit shape %v", d.InputShape())
	}
	if d.NumClasses != 10 {
		t.Errorf("classes %d", d.NumClasses)
	}
	// pixels in [0,1]
	for _, x := range d.TrainX[:5] {
		for _, v := range x.Data() {
			if v < 0 || v > 1 {
				t.Fatalf("pixel %v out of range", v)
			}
		}
	}
	// images of different digits should differ meaningfully
	var zero, one *tensor.Dense
	for i, y := range d.TrainY {
		if y == 0 && zero == nil {
			zero = d.TrainX[i]
		}
		if y == 1 && one == nil {
			one = d.TrainX[i]
		}
	}
	if zero != nil && one != nil {
		var diff float64
		for i := range zero.Data() {
			dv := zero.Data()[i] - one.Data()[i]
			diff += dv * dv
		}
		if diff < 1 {
			t.Errorf("digit 0 and 1 images nearly identical (L2² = %v)", diff)
		}
	}
	if _, err := Digits(ImageConfig{Train: 0}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Digits(ImageConfig{Train: 5, Classes: 11}); err == nil {
		t.Error("11 digit classes accepted")
	}
}

func TestTexturesGeneration(t *testing.T) {
	d, err := Textures(ImageConfig{Name: "tex", Train: 40, Test: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !d.InputShape().Equal(tensor.Shape{3, 32, 32}) {
		t.Errorf("texture shape %v", d.InputShape())
	}
	for _, x := range d.TrainX[:3] {
		for _, v := range x.Data() {
			if v < 0 || v > 1 {
				t.Fatalf("pixel %v out of range", v)
			}
		}
	}
	if _, err := Textures(ImageConfig{Train: 0}); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestDatasetValidate(t *testing.T) {
	d := &Dataset{Name: "bad", NumClasses: 2,
		TrainX: []*tensor.Dense{tensor.Zeros(3)}, TrainY: []int{0, 1}}
	if err := d.Validate(); err == nil {
		t.Error("X/Y mismatch accepted")
	}
	d2 := &Dataset{Name: "bad2", NumClasses: 2,
		TrainX: []*tensor.Dense{tensor.Zeros(3)}, TrainY: []int{5}}
	if err := d2.Validate(); err == nil {
		t.Error("out-of-range label accepted")
	}
	d3 := &Dataset{Name: "bad3", NumClasses: 2,
		TrainX: []*tensor.Dense{tensor.Zeros(3), tensor.Zeros(4)}, TrainY: []int{0, 1}}
	if err := d3.Validate(); err == nil {
		t.Error("ragged shapes accepted")
	}
}
