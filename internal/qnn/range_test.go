package qnn

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppstream/internal/modelfile"
	"ppstream/internal/models"
	"ppstream/internal/nn"
	"ppstream/internal/scaling"
)

// TestServedWeightsFitInt32: every Table III model as Build makes it, and
// the committed Heart model file, quantizes within the int32 a served
// weight is held in at every scaling exponent 0…scaling.MaxExponent.
func TestServedWeightsFitInt32(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("..", "modelfile", "testdata", "heart.gob.hex"))
	if err != nil {
		t.Fatal(err)
	}
	var file []byte
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		// hex.Dump's "00000000  1f 8b ...  |ascii|": the offset, then the bytes.
		digits, _, _ := strings.Cut(line[len("00000000"):], "|")
		b, err := hex.DecodeString(strings.ReplaceAll(digits, " ", ""))
		if err != nil {
			t.Fatal(err)
		}
		file = append(file, b...)
	}
	heart, err := modelfile.Load(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]*nn.Network{"heart.gob.hex": heart}
	for _, spec := range models.All() {
		if nets[spec.Name], err = spec.Build(); err != nil {
			t.Fatal(err)
		}
	}
	for name, net := range nets {
		merged, err := nn.Merge(net)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f <= scaling.MaxExponent; f++ {
			for _, m := range merged {
				if m.Kind != nn.Linear {
					continue
				}
				if _, err := QuantizeStage(m, scaling.Pow10(f)); err != nil {
					t.Errorf("%s at 10^%d: %v", name, f, err)
				}
			}
		}
	}
}
