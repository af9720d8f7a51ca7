package nn

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ppstream/internal/tensor"
)

// goldenHeart is the network testdata/heart.gob.hex holds: the Heart
// model's 13 inputs and declared input domain, with a batch-norm layer so
// that every field of the file format — layer ints, floats and tensors —
// is present. Every weight is a short binary fraction, exact in float64.
func goldenHeart() *Network {
	frac := func(mod int, shape ...int) *tensor.Dense {
		t := tensor.Zeros(shape...)
		for i := range t.Data() {
			t.Data()[i] = float64(i%mod-mod/2) / 8
		}
		return t
	}
	fc := func(name string, in, out int) *FC {
		return &FC{LayerName: name, W: frac(7, out, in), B: frac(3, out)}
	}
	bn := NewBatchNorm("bn1", 3)
	bn.Eps = 1.0 / 1024
	bn.Gamma, bn.Beta = tensor.MustFromSlice([]float64{1.5, 0.5, 2}, 3), tensor.MustFromSlice([]float64{0.25, -0.25, 0}, 3)
	bn.Mean, bn.Var = tensor.MustFromSlice([]float64{0.125, 0, -1}, 3), tensor.MustFromSlice([]float64{1, 4, 0.5}, 3)
	return &Network{
		ModelName:  "Heart",
		InputShape: tensor.Shape{13},
		Layers:     []Layer{fc("fc1", 13, 3), bn, NewReLU("relu1"), fc("fc2", 3, 2), NewSoftMax("softmax")},
		InputMax:   64,
	}
}

// TestGoldenModelFile: a model file written by an earlier build still
// loads, field for field. The file is gob, which skips a field the reader
// no longer has and zeroes one the file lacks, so removing, renaming or
// retyping a field of the format would otherwise go unnoticed until an
// old model served with the wrong input domain — or failed to load. A
// deliberate break of the format replaces the file with hex.Dump of
// Save(goldenHeart()).
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
