package modelfile

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ppstream/internal/nn"
	"ppstream/internal/tensor"
)

// goldenHeart is the network testdata/heart.gob.hex holds: the Heart
// model's 13 inputs and declared input domain, with a batch-norm layer so
// that every field of the file format — layer ints, floats and tensors —
// is present. Every weight is a short binary fraction, exact in float64.
func goldenHeart() *nn.Network {
	frac := func(mod int, shape ...int) *tensor.Dense {
		t := tensor.Zeros(shape...)
		for i := range t.Data() {
			t.Data()[i] = float64(i%mod-mod/2) / 8
		}
		return t
	}
	fc := func(name string, in, out int) *nn.FC {
		return &nn.FC{LayerName: name, W: frac(7, out, in), B: frac(3, out)}
	}
	bn := nn.NewBatchNorm("bn1", 3)
	bn.Eps = 1.0 / 1024
	bn.Gamma, bn.Beta = tensor.MustFromSlice([]float64{1.5, 0.5, 2}, 3), tensor.MustFromSlice([]float64{0.25, -0.25, 0}, 3)
	bn.Mean, bn.Var = tensor.MustFromSlice([]float64{0.125, 0, -1}, 3), tensor.MustFromSlice([]float64{1, 4, 0.5}, 3)
	return &nn.Network{
		ModelName:  "Heart",
		InputShape: tensor.Shape{13},
		Layers:     []nn.Layer{fc("fc1", 13, 3), bn, nn.NewReLU("relu1"), fc("fc2", 3, 2), nn.NewSoftMax("softmax")},
		InputMax:   64,
	}
}

// TestGoldenModelFile: a model file written by an earlier build still
// loads, field for field. The file is gob, which skips a field the reader
// no longer has and zeroes one the file lacks, so removing, renaming or
// retyping a field of the format would otherwise go unnoticed until an
// old model served with the wrong input domain — or failed to load. A
// deliberate break of the format replaces the file with hex.Dump of
// Save(goldenHeart()). The file was written while the format lived in
// package nn, so it also pins that gob's type names do not matter.
func TestGoldenModelFile(t *testing.T) {
	loaded, err := Load(bytes.NewReader(undump(t, filepath.Join("testdata", "heart.gob.hex"))))
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenHeart(); !reflect.DeepEqual(loaded, want) {
		t.Errorf("golden model file loads as\n%+v\nwant\n%+v", loaded, want)
	}
}

// undump reads back a file written with hex.Dump.
func undump(t *testing.T, path string) []byte {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		// "00000000  1f 8b ...  |ascii|": the offset, then the bytes.
		digits, _, _ := strings.Cut(line[len("00000000"):], "|")
		b, err := hex.DecodeString(strings.ReplaceAll(digits, " ", ""))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, b...)
	}
	return out
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	conv, err := nn.NewConv("c1", tensor.ConvParams{InC: 1, InH: 6, InW: 6, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	bn := nn.NewBatchNorm("bn", 2)
	net, err := nn.NewNetwork("roundtrip", tensor.Shape{1, 6, 6},
		conv,
		bn,
		nn.NewReLU("relu"),
		nn.NewMaxPool("mp", 2, 2),
		nn.NewFlatten("fl"),
		nn.NewFC("fc", 2*3*3, 4, r),
		nn.NewScaledSigmoid("ss", 4),
		nn.NewFC("fc2", 4, 2, r),
		nn.NewSoftMax("sm"),
	)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(net, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Zeros(1, 6, 6)
	for i := range x.Data() {
		x.Data()[i] = float64(i%5) / 5
	}
	want, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(want, got, 1e-12) {
		t.Error("loaded network computes different outputs")
	}
	if loaded.ModelName != "roundtrip" {
		t.Errorf("model name lost: %q", loaded.ModelName)
	}
	if loaded.InputMax != 0 {
		t.Errorf("an undeclared input domain loaded as ±%v", loaded.InputMax)
	}
	net.InputMax = 1
	buf.Reset()
	if err := Save(net, &buf); err != nil {
		t.Fatal(err)
	}
	if declared, err := Load(&buf); err != nil || declared.InputMax != 1 || declared.Clone().InputMax != 1 {
		t.Errorf("declared input domain ±1 did not survive save, load and clone: %+v, %v", declared, err)
	}
	// A loaded network stays trainable: one epoch moves its parameters
	// exactly as the same epoch moves the saved network's.
	xs := make([]*tensor.Dense, 8)
	ys := make([]int, len(xs))
	for i := range xs {
		xs[i] = tensor.Zeros(1, 6, 6)
		for j := range xs[i].Data() {
			xs[i].Data()[j] = r.NormFloat64()
		}
		ys[i] = i % 2
	}
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs, cfg.BatchSize = 1, 4
	untrained := net.Clone()
	for _, n := range []*nn.Network{net, loaded} {
		if err := nn.Train(n, xs, ys, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if sameParams(net, untrained) {
		t.Fatal("one epoch moved no parameter")
	}
	if !sameParams(net, loaded) {
		t.Error("one epoch on the loaded network trained different parameters than on the saved one")
	}
}

// sameParams reports whether two networks' parameters are equal bit for bit.
func sameParams(a, b *nn.Network) bool {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		da, db := pa[i].Data(), pb[i].Data()
		if len(da) != len(db) {
			return false
		}
		for j := range da {
			if math.Float64bits(da[j]) != math.Float64bits(db[j]) {
				return false
			}
		}
	}
	return true
}

// TestLoadsFileWrittenBeforeInputMax: the model file is gob and the field
// is additive. A file with the three fields the format had before the
// input domain existed loads, computes the same outputs and declares no
// domain — so it serves with the slot widths it always had.
func TestLoadsFileWrittenBeforeInputMax(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	net, err := nn.NewNetwork("test", tensor.Shape{4}, nn.NewFC("fc1", 4, 6, r), nn.NewReLU("relu1"), nn.NewFC("fc2", 6, 3, r), nn.NewSoftMax("softmax"))
	if err != nil {
		t.Fatal(err)
	}
	old := struct {
		Name   string
		Input  []int
		Layers []layerBlob
	}{Name: net.ModelName, Input: net.InputShape}
	for _, l := range net.Layers {
		lb, err := encodeLayer(l)
		if err != nil {
			t.Fatal(err)
		}
		old.Layers = append(old.Layers, lb)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("loading a pre-InputMax file: %v", err)
	}
	if loaded.InputMax != 0 {
		t.Errorf("pre-InputMax file declares input domain ±%v", loaded.InputMax)
	}
	x := tensor.MustFromSlice([]float64{0.2, -1.5, 3, 0}, 4)
	want, _ := net.Forward(x)
	got, err := loaded.Forward(x)
	if err != nil || !tensor.AllClose(want, got, 0) {
		t.Errorf("pre-InputMax file computes %v (%v), want %v", got, err, want)
	}
}
