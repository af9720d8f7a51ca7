// Package dataset provides procedurally generated stand-ins for the
// datasets the paper evaluates on (MNIST, CIFAR-10, and the Kaggle
// Breast/Heart/Cardio healthcare sets). The real datasets are external
// downloads; per the reproduction's substitution rule, these generators
// produce learnable synthetic datasets with the same feature dimensions,
// class counts, and (optionally) sample counts as Table III, so every
// accuracy and latency experiment exercises the identical code paths.
//
// All generators are deterministic for a given seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"ppstream/internal/tensor"
)

// Dataset is a labelled sample collection split into train and test
// partitions, mirroring Table III's per-dataset splits.
type Dataset struct {
	Name       string
	NumClasses int
	// InputMax is the generator's guarantee on every sample element:
	// |x| ≤ InputMax (ImageMax or TabularMax; Validate checks it). A model
	// serving this dataset declares it as nn.Network.InputMax.
	InputMax float64
	TrainX   []*tensor.Dense
	TrainY   []int
	TestX    []*tensor.Dense
	TestY    []int
}

const (
	// ImageMax bounds image pixels: both image generators clamp to [0, 1].
	ImageMax = 1.0
	// TabularMax bounds tabular features: Tabular clamps every feature to
	// ±TabularMax, far outside anything its Gaussian clusters draw.
	TabularMax = 64.0
)

// InputShape returns the shape of one sample.
func (d *Dataset) InputShape() tensor.Shape {
	if len(d.TrainX) > 0 {
		return d.TrainX[0].Shape()
	}
	if len(d.TestX) > 0 {
		return d.TestX[0].Shape()
	}
	return nil
}

// Validate checks internal consistency: matching lengths, uniform shapes,
// labels in range.
func (d *Dataset) Validate() error {
	if len(d.TrainX) != len(d.TrainY) {
		return fmt.Errorf("dataset %s: train X/Y length mismatch %d/%d", d.Name, len(d.TrainX), len(d.TrainY))
	}
	if len(d.TestX) != len(d.TestY) {
		return fmt.Errorf("dataset %s: test X/Y length mismatch %d/%d", d.Name, len(d.TestX), len(d.TestY))
	}
	if len(d.TrainX) == 0 {
		return fmt.Errorf("dataset %s: empty training set", d.Name)
	}
	shape := d.InputShape()
	check := func(xs []*tensor.Dense, ys []int, part string) error {
		for i, x := range xs {
			if !x.Shape().Equal(shape) {
				return fmt.Errorf("dataset %s: %s sample %d shape %v != %v", d.Name, part, i, x.Shape(), shape)
			}
			if ys[i] < 0 || ys[i] >= d.NumClasses {
				return fmt.Errorf("dataset %s: %s label %d out of range [0,%d)", d.Name, part, ys[i], d.NumClasses)
			}
			if d.InputMax <= 0 {
				continue
			}
			for _, v := range x.Data() {
				if !(math.Abs(v) <= d.InputMax) {
					return fmt.Errorf("dataset %s: %s sample %d holds %v, outside ±%v", d.Name, part, i, v, d.InputMax)
				}
			}
		}
		return nil
	}
	if err := check(d.TrainX, d.TrainY, "train"); err != nil {
		return err
	}
	return check(d.TestX, d.TestY, "test")
}

// TabularConfig parameterizes a synthetic tabular (healthcare-style)
// dataset: class-conditioned Gaussian clusters with controllable overlap.
type TabularConfig struct {
	Name     string
	Features int
	Classes  int
	Train    int
	Test     int
	Seed     int64
	// Separation scales the distance between class means; ~2 gives the
	// high-but-not-perfect accuracies the healthcare models show.
	Separation float64
	// Noise is the within-class standard deviation.
	Noise float64
}

// Tabular generates a class-conditioned Gaussian-cluster dataset.
func Tabular(cfg TabularConfig) (*Dataset, error) {
	if cfg.Features <= 0 || cfg.Classes < 2 || cfg.Train <= 0 || cfg.Test < 0 {
		return nil, fmt.Errorf("dataset: invalid tabular config %+v", cfg)
	}
	if cfg.Separation == 0 {
		cfg.Separation = 2.0
	}
	if cfg.Noise == 0 {
		cfg.Noise = 1.0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Class means on a noisy simplex-ish layout.
	means := make([][]float64, cfg.Classes)
	for c := range means {
		means[c] = make([]float64, cfg.Features)
		for f := range means[c] {
			means[c][f] = rng.NormFloat64() * cfg.Separation
		}
	}
	sample := func(n int) ([]*tensor.Dense, []int) {
		xs := make([]*tensor.Dense, n)
		ys := make([]int, n)
		for i := 0; i < n; i++ {
			c := rng.Intn(cfg.Classes)
			x := tensor.Zeros(cfg.Features)
			for f := 0; f < cfg.Features; f++ {
				x.Data()[f] = math.Max(-TabularMax, math.Min(TabularMax, means[c][f]+rng.NormFloat64()*cfg.Noise))
			}
			xs[i], ys[i] = x, c
		}
		return xs, ys
	}
	d := &Dataset{Name: cfg.Name, NumClasses: cfg.Classes, InputMax: TabularMax}
	d.TrainX, d.TrainY = sample(cfg.Train)
	d.TestX, d.TestY = sample(cfg.Test)
	return d, d.Validate()
}

// ImageConfig parameterizes a synthetic image dataset.
type ImageConfig struct {
	Name     string
	Channels int
	Side     int // square images, Side×Side
	Classes  int
	Train    int
	Test     int
	Seed     int64
	// Noise is the additive pixel noise standard deviation.
	Noise float64
}

// Digits generates an MNIST-like dataset: 28×28 single-channel images of
// seven-segment style digit glyphs with random offset, thickness jitter,
// and pixel noise. Ten classes, one glyph per digit, drawn procedurally.
func Digits(cfg ImageConfig) (*Dataset, error) {
	if cfg.Side == 0 {
		cfg.Side = 28
	}
	if cfg.Channels == 0 {
		cfg.Channels = 1
	}
	if cfg.Classes == 0 {
		cfg.Classes = 10
	}
	if cfg.Classes > 10 {
		return nil, fmt.Errorf("dataset: digits supports ≤ 10 classes, got %d", cfg.Classes)
	}
	if cfg.Noise == 0 {
		cfg.Noise = 0.15
	}
	if cfg.Train <= 0 {
		return nil, fmt.Errorf("dataset: digits needs training samples")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sample := func(n int) ([]*tensor.Dense, []int) {
		xs := make([]*tensor.Dense, n)
		ys := make([]int, n)
		for i := 0; i < n; i++ {
			c := rng.Intn(cfg.Classes)
			xs[i] = renderDigit(c, cfg.Side, cfg.Channels, cfg.Noise, rng)
			ys[i] = c
		}
		return xs, ys
	}
	d := &Dataset{Name: cfg.Name, NumClasses: cfg.Classes, InputMax: ImageMax}
	d.TrainX, d.TrainY = sample(cfg.Train)
	d.TestX, d.TestY = sample(cfg.Test)
	return d, d.Validate()
}

// segment layout of a seven-segment display:
//
//	 _a_
//	f|   |b
//	 |_g_|
//	e|   |c
//	 |_d_|
var segmentsByDigit = [10][7]bool{
	//          a      b      c      d      e      f      g
	0: {true, true, true, true, true, true, false},
	1: {false, true, true, false, false, false, false},
	2: {true, true, false, true, true, false, true},
	3: {true, true, true, true, false, false, true},
	4: {false, true, true, false, false, true, true},
	5: {true, false, true, true, false, true, true},
	6: {true, false, true, true, true, true, true},
	7: {true, true, true, false, false, false, false},
	8: {true, true, true, true, true, true, true},
	9: {true, true, true, true, false, true, true},
}

func renderDigit(digit, side, channels int, noise float64, rng *rand.Rand) *tensor.Dense {
	img := tensor.Zeros(channels, side, side)
	// Glyph box, centred with small positional jitter — MNIST digits are
	// size-normalized and centred, which is what lets even MLPs learn
	// them.
	boxW := side * 5 / 10
	boxH := side * 7 / 10
	jitter := func() int { return rng.Intn(5) - 2 }
	ox := clampInt((side-boxW)/2+jitter(), 0, side-boxW-1)
	oy := clampInt((side-boxH)/2+jitter(), 0, side-boxH-1)
	th := 1 + rng.Intn(2) // stroke thickness jitter

	hseg := func(x0, y, w int) { fillRect(img, channels, side, x0, y, w, th) }
	vseg := func(x, y0, h int) { fillRect(img, channels, side, x, y0, th, h) }

	segs := segmentsByDigit[digit]
	midY := oy + boxH/2
	if segs[0] {
		hseg(ox, oy, boxW)
	}
	if segs[1] {
		vseg(ox+boxW-th, oy, boxH/2)
	}
	if segs[2] {
		vseg(ox+boxW-th, midY, boxH-boxH/2)
	}
	if segs[3] {
		hseg(ox, oy+boxH-th, boxW)
	}
	if segs[4] {
		vseg(ox, midY, boxH-boxH/2)
	}
	if segs[5] {
		vseg(ox, oy, boxH/2)
	}
	if segs[6] {
		hseg(ox, midY, boxW)
	}
	// Additive noise.
	d := img.Data()
	for i := range d {
		d[i] += rng.NormFloat64() * noise
		d[i] = clamp01(d[i])
	}
	return img
}

func fillRect(img *tensor.Dense, channels, side, x0, y0, w, h int) {
	d := img.Data()
	for c := 0; c < channels; c++ {
		for y := y0; y < y0+h && y < side; y++ {
			if y < 0 {
				continue
			}
			for x := x0; x < x0+w && x < side; x++ {
				if x < 0 {
					continue
				}
				d[(c*side+y)*side+x] = 1
			}
		}
	}
}

// Textures generates a CIFAR-like dataset: Side×Side RGB images whose
// classes are distinguished by oriented sinusoidal textures with
// class-specific frequency, orientation, and channel mixing, plus noise.
func Textures(cfg ImageConfig) (*Dataset, error) {
	if cfg.Side == 0 {
		cfg.Side = 32
	}
	if cfg.Channels == 0 {
		cfg.Channels = 3
	}
	if cfg.Classes == 0 {
		cfg.Classes = 10
	}
	if cfg.Noise == 0 {
		cfg.Noise = 0.2
	}
	if cfg.Train <= 0 {
		return nil, fmt.Errorf("dataset: textures needs training samples")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sample := func(n int) ([]*tensor.Dense, []int) {
		xs := make([]*tensor.Dense, n)
		ys := make([]int, n)
		for i := 0; i < n; i++ {
			c := rng.Intn(cfg.Classes)
			xs[i] = renderTexture(c, cfg.Side, cfg.Channels, cfg.Classes, cfg.Noise, rng)
			ys[i] = c
		}
		return xs, ys
	}
	d := &Dataset{Name: cfg.Name, NumClasses: cfg.Classes, InputMax: ImageMax}
	d.TrainX, d.TrainY = sample(cfg.Train)
	d.TestX, d.TestY = sample(cfg.Test)
	return d, d.Validate()
}

func renderTexture(class, side, channels, classes int, noise float64, rng *rand.Rand) *tensor.Dense {
	img := tensor.Zeros(channels, side, side)
	freq := 1.0 + float64(class%5)
	theta := math.Pi * float64(class) / float64(classes)
	phase := rng.Float64() * 2 * math.Pi
	cosT, sinT := math.Cos(theta), math.Sin(theta)
	d := img.Data()
	for c := 0; c < channels; c++ {
		chanGain := 0.5 + 0.5*math.Cos(float64(class)+float64(c)*2.1)
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				u := (float64(x)*cosT + float64(y)*sinT) / float64(side)
				v := 0.5 + 0.5*math.Sin(2*math.Pi*freq*u+phase)
				d[(c*side+y)*side+x] = clamp01(v*chanGain + rng.NormFloat64()*noise)
			}
		}
	}
	return img
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
