package paillier

import (
	"testing"

	"ppstream/internal/obs"
)

// TestPricePricesEachOperationOnce: an encryption's two multiplications
// and two exponentiations, a decryption's two exponentiations and a
// re-randomization's exponentiation are inside their own unit costs; only
// what is left over is priced per multiplication, inversion or scalar
// exponentiation.
func TestPricePricesEachOperationOnce(t *testing.T) {
	u := UnitCosts{MulMod: 1, ModInverse: 1e1, Encrypt: 1e2, Decrypt: 1e3, Blinding: 1e4, ScalarExp: 1e5}
	st := obs.CostStats{
		Encrypts: 2, Decrypts: 3, Rerands: 4, ModInverses: 1,
		MulMods: 2*2 + 7,
		ModExps: 2*2 + 2*3 + 4 + 5,
	}
	if got, want := u.Price(st), 2e2+3e3+4e4+7+1e1+5e5; got != want {
		t.Errorf("Price = %v, want %v", got, want)
	}
}

// TestMeasureUnitCostsOncePerKeySize: every unit is measured, a
// full-size r^n costs more than one multiplication, and a second call at
// the same key size returns the first measurement.
func TestMeasureUnitCostsOncePerKeySize(t *testing.T) {
	k := key(t)
	u, err := MeasureUnitCosts(k)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{"MulMod": u.MulMod, "ModInverse": u.ModInverse, "Encrypt": u.Encrypt,
		"Decrypt": u.Decrypt, "Blinding": u.Blinding, "ScalarExp": u.ScalarExp} {
		if v <= 0 {
			t.Errorf("%s unit cost %v", name, v)
		}
	}
	if u.Blinding <= u.MulMod {
		t.Errorf("r^n %v s not above one multiplication %v s", u.Blinding, u.MulMod)
	}
	if again, err := MeasureUnitCosts(k); err != nil || again != u {
		t.Errorf("second measurement %+v, %v; want the cached %+v", again, err, u)
	}
}
