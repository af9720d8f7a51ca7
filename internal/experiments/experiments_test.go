package experiments

import (
	"strings"
	"testing"
	"time"
)

// quickCfg keeps experiment tests CI-friendly: tiny keys, few requests.
func quickCfg() Config {
	return Config{KeyBits: 256, Requests: 6, ProfileReps: 1, Trials: 2, Quick: true}
}

func TestFig1SmallKeys(t *testing.T) {
	res, err := Fig1([]int{128, 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Larger keys must cost more for encryption and decryption.
	if res.Rows[1].Encrypt <= res.Rows[0].Encrypt {
		t.Errorf("encrypt did not grow with key size: %v vs %v", res.Rows[0].Encrypt, res.Rows[1].Encrypt)
	}
	// The key holder's CRT blinding must undercut the public r^n.
	if res.Rows[1].EncryptKeyHolder >= res.Rows[1].Encrypt {
		t.Errorf("key-holder encrypt (%v) not cheaper than public encrypt (%v)", res.Rows[1].EncryptKeyHolder, res.Rows[1].Encrypt)
	}
	// Homomorphic add must be far cheaper than encryption (Fig 1 shape).
	if res.Rows[1].Add*10 > res.Rows[1].Encrypt {
		t.Errorf("add (%v) not ≪ encrypt (%v)", res.Rows[1].Add, res.Rows[1].Encrypt)
	}
	out := res.Render()
	if !strings.Contains(out, "Fig 1") || !strings.Contains(out, "256") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestTables4And5Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	train, test, err := Tables4And5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Rows) == 0 || len(train.Rows) != len(test.Rows) {
		t.Fatalf("row counts %d/%d", len(train.Rows), len(test.Rows))
	}
	for _, row := range train.Rows {
		if len(row.Sweep) != 7 {
			t.Fatalf("%s sweep has %d entries", row.Model, len(row.Sweep))
		}
		// Accuracy at the selected factor must be near the original.
		sel := row.Sweep[row.Selected]
		if row.Original-sel > 0.02 && row.Selected < 6 {
			t.Errorf("%s: selected factor accuracy %.3f far from original %.3f", row.Model, sel, row.Original)
		}
		// High factors should beat factor 10^0 (paper shape).
		if row.Sweep[6] < row.Sweep[0]-1e-9 {
			t.Errorf("%s: accuracy decreased with precision: %v", row.Model, row.Sweep)
		}
	}
	if !strings.Contains(train.Render(), "Table IV") || !strings.Contains(test.Render(), "Table V") {
		t.Error("render labels wrong")
	}
}

func TestFig8Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("latency experiments in -short mode")
	}
	res, err := Fig8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Core Fig 8 shape: CipherBase ≫ PlainBase, and streaming beats
		// centralized ciphertext execution.
		if row.CipherBase < row.PlainBase*10 {
			t.Errorf("%s: CipherBase %v not ≫ PlainBase %v", row.Model, row.CipherBase, row.PlainBase)
		}
		if row.PPStreamB >= row.CipherBase {
			t.Errorf("%s: PP-Stream %v did not beat CipherBase %v", row.Model, row.PPStreamB, row.CipherBase)
		}
	}
	if !strings.Contains(res.Render(), "Fig 8") {
		t.Error("render label wrong")
	}
}

func TestFig7And9Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("latency experiments in -short mode")
	}
	cfg := quickCfg()
	f7, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Rows) == 0 {
		t.Fatal("fig7 empty")
	}
	f9, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f9.Rows) == 0 {
		t.Fatal("fig9 empty")
	}
	for _, row := range f9.Rows {
		if row.With <= 0 || row.Without <= 0 {
			t.Errorf("non-positive latency in %+v", row)
		}
	}
	if !strings.Contains(f7.Render(), "Fig 7") || !strings.Contains(f9.Render(), "Fig 9") {
		t.Error("render labels wrong")
	}
}

func TestTable6Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("leakage sweep in -short mode")
	}
	res, err := Table6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Table VI shape: dcor decreases with tensor length.
	first, last := res.Rows[0].Dcor, res.Rows[len(res.Rows)-1].Dcor
	if last >= first {
		t.Errorf("dcor did not decrease: 2^5 %.4f vs max %.4f", first, last)
	}
	for _, row := range res.Rows {
		if row.Dcor < 0 || row.Dcor > 1 {
			t.Errorf("dcor %v out of range", row.Dcor)
		}
	}
}

func TestTable7Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison experiments in -short mode")
	}
	res, err := Table7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var ppstream, ezpc time.Duration
	reported := 0
	for _, row := range res.Rows {
		if row.Reported {
			reported++
		}
		if row.Model == "MNIST-1" {
			switch row.System {
			case "PP-Stream":
				ppstream = row.Latency
			case "EzPC":
				ezpc = row.Latency
			}
		}
	}
	if reported != 3 {
		t.Errorf("%d reported rows, want 3", reported)
	}
	if ppstream == 0 || ezpc == 0 {
		t.Fatal("missing measured rows")
	}
	t.Logf("MNIST-1: PP-Stream %v vs EzPC-style %v", ppstream, ezpc)
	if !strings.Contains(res.Render(), "Table VII") {
		t.Error("render label wrong")
	}
}

func TestTable3Render(t *testing.T) {
	out := Table3Render()
	for _, name := range []string{"Breast", "MNIST-3", "CIFAR-10-3", "VGG19"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table III missing %s", name)
		}
	}
}
