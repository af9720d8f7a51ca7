package paillier

import (
	"testing"

	"ppstream/internal/obs"
)

// TestPricePricesEachOperationOnce: an encryption's two multiplications
// and two exponentiations, a decryption's two exponentiations and a
// re-randomization's exponentiation are inside their own unit costs; only
// what is left over is priced per multiplication or inversion. Gates,
// extension OTs, triples and plain ops are priced at their own units.
func TestPricePricesEachOperationOnce(t *testing.T) {
	u := UnitCosts{MulMod: 1, ModInverse: 1e1, Encrypt: 1e2, Decrypt: 1e3, Blinding: 1e4,
		Gate: 1e6, ExtOT: 1e7, Triple: 1e8, PlainOp: 1e9}
	st := obs.CostStats{
		Encrypts: 2, Decrypts: 3, Rerands: 4, ModInverses: 1,
		MulMods: 2*2 + 7,
		ModExps: 2*2 + 2*3 + 4,
		GCGates: 2, ExtOTs: 3, Triples: 4, PlainOps: 5, OpenedWords: 99, PoolMisses: 4,
	}
	if got, want := u.Price(st), 2e2+3e3+4e4+7+1e1+2e6+3e7+4e8+5e9; got != want {
		t.Errorf("Price = %v, want %v", got, want)
	}
}

// TestPaillierTrialsNeedNoKey: the stand-in key has a modulus of exactly
// the asked size, and one sweep of the Paillier trials built on it runs
// every operation and fills every Paillier unit.
func TestPaillierTrialsNeedNoKey(t *testing.T) {
	for _, bits := range []int{256, 512} {
		sk, err := standInKey(bits)
		if err != nil {
			t.Fatal(err)
		}
		if got := sk.N.BitLen(); got != bits {
			t.Errorf("stand-in modulus has %d bits, want %d", got, bits)
		}
		var u UnitCosts
		trials, err := u.Trials(bits)
		if err != nil {
			t.Fatal(err)
		}
		if err := Sweep(trials); err != nil {
			t.Fatal(err)
		}
		for name, v := range map[string]float64{"MulMod": u.MulMod, "ModInverse": u.ModInverse, "Encrypt": u.Encrypt,
			"Decrypt": u.Decrypt, "Blinding": u.Blinding} {
			if v <= 0 {
				t.Errorf("%d bits: %s unit cost %v", bits, name, v)
			}
		}
	}
	if _, err := new(UnitCosts).Trials(255); err == nil {
		t.Error("odd key size accepted")
	}
}
