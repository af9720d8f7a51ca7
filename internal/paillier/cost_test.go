package paillier

import (
	"math/big"
	"testing"

	"ppstream/internal/obs"
	"ppstream/internal/tensor"
)

// fakeTracked is a Blinder whose hit/miss signal is fixed, making the
// accounting assertions deterministic (a live Pool's hit rate depends on
// fill-worker timing).
type fakeTracked struct {
	pk     *PublicKey
	pooled bool
}

func (f fakeTracked) Blinding() (*big.Int, error) {
	rn, _, err := f.BlindingTracked()
	return rn, err
}

func (f fakeTracked) BlindingTracked() (*big.Int, bool, error) {
	rn, err := f.pk.freshBlinding(nil)
	return rn, f.pooled, err
}

// TestKernelCostExactCounts pins the kernel's deterministic op accounting
// for a fixed window: table builds, inverses, digit multiplies and the
// bias fold — and no blinding, which is Pack's.
func TestKernelCostExactCounts(t *testing.T) {
	k := key(t)
	var m obs.CostMeter
	ev := NewEvaluator(&k.PublicKey, WithWindow(2), WithCostMeter(&m))

	xs := encryptVec(t, k, []int64{4, 7})
	// ws = [3, −1]: column 0 positive, column 1 negative; maxBits = 2 so a
	// window-2 evaluation is a single digit round with no squarings.
	ct, err := dotRow(ev, xs, []int64{3, -1}, big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := k.DecryptInt64(ct); err != nil || got != 3*4-7+5 {
		t.Fatalf("dot = %d, %v; want 10", got, err)
	}

	st := m.Snapshot()
	// Precompute: tableLen = 2²−1 = 3, so 2 mulmods per built table; one
	// positive table + one negative table + 1 inverse.
	// Dot: 2 digit multiplies + 1 bias fold = 3 mulmods.
	want := obs.CostStats{
		MulMods:     2 + 2 + 3,
		ModInverses: 1,
	}
	if st != want {
		t.Fatalf("cost = %+v, want %+v", st, want)
	}
}

// TestKernelCostSquarings checks the shared-squaring count: a multi-digit
// weight costs window squarings per non-leading digit round, once for the
// whole row.
func TestKernelCostSquarings(t *testing.T) {
	k := key(t)
	var m obs.CostMeter
	ev := NewEvaluator(&k.PublicKey, WithWindow(2), WithCostMeter(&m))

	xs := encryptVec(t, k, []int64{2})
	// w = 13 = 0b1101: maxBits 4, window 2 → 2 digit rounds → one squaring
	// block of 2; digits are 0b11 and 0b01, both non-zero → 2 multiplies.
	ct, err := dotRow(ev, xs, []int64{13}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := k.DecryptInt64(ct); err != nil || got != 26 {
		t.Fatalf("dot = %d, %v; want 26", got, err)
	}
	st := m.Snapshot()
	// Precompute: one positive table, 2 mulmods. Dot: 2 squarings + 2 digit
	// multiplies = 4.
	if st.MulMods != 2+4 {
		t.Fatalf("mulmods = %d, want 6 (%+v)", st.MulMods, st)
	}
	if st.ModInverses != 0 {
		t.Fatalf("modinverses = %d, want 0", st.ModInverses)
	}
}

// TestWithCostIsolation derives two metered views from one shared
// evaluator and checks their counts stay separate — the per-request
// attribution property the session layer relies on.
func TestWithCostIsolation(t *testing.T) {
	k := key(t)
	base := NewEvaluator(&k.PublicKey, WithWindow(2))
	var m1, m2 obs.CostMeter
	ev1, ev2 := base.WithCost(&m1), base.WithCost(&m2)

	xs := encryptVec(t, k, []int64{1, 2, 3})
	if _, err := dotRow(ev1, xs, []int64{1, 1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := dotRow(ev2, xs, []int64{1, 0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	st1, st2 := m1.Snapshot(), m2.Snapshot()
	if st1.IsZero() || st2.IsZero() {
		t.Fatalf("derived meters empty: %+v / %+v", st1, st2)
	}
	if st1 == st2 {
		t.Fatalf("different workloads produced identical counts: %+v", st1)
	}
	if base.CostMeter() != nil {
		t.Fatal("base evaluator must stay unmetered")
	}
	if ev1.CostMeter() != &m1 || ev2.CostMeter() != &m2 {
		t.Fatal("derived evaluators must expose their own meters")
	}
}

// TestBlindingCostHitMiss checks that pool hits and misses are attributed
// correctly through the evaluator's re-randomization.
func TestBlindingCostHitMiss(t *testing.T) {
	k := key(t)
	for _, pooled := range []bool{true, false} {
		var m obs.CostMeter
		ev := NewEvaluator(&k.PublicKey,
			WithBlinder(fakeTracked{pk: &k.PublicKey, pooled: pooled}),
			WithCostMeter(&m))
		if _, err := ev.rerandomize(encryptVec(t, k, []int64{1})[0]); err != nil {
			t.Fatal(err)
		}
		st := m.Snapshot()
		if st.Rerands != 1 || st.MulMods != 1 {
			t.Fatalf("pooled=%v: rerands = %d, want 1", pooled, st.Rerands)
		}
		if pooled && (st.PoolHits != 1 || st.PoolMisses != 0 || st.ModExps != 0) {
			t.Fatalf("pooled hit miscounted: %+v", st)
		}
		if !pooled && (st.PoolHits != 0 || st.PoolMisses != 1 || st.ModExps != 1) {
			t.Fatalf("inline miss miscounted: %+v", st)
		}
	}
}

// TestPoolTrackedAPIs exercises the Pool's tracked variants directly.
func TestPoolTrackedAPIs(t *testing.T) {
	k := key(t)
	p := NewPool(&k.PublicKey, nil, 4, 1)
	defer p.Close()

	// Drain until we observe at least one pooled factor — the fill worker
	// is running, so this terminates.
	sawHit := false
	for i := 0; i < 200 && !sawHit; i++ {
		_, pooled, err := p.BlindingTracked()
		if err != nil {
			t.Fatal(err)
		}
		sawHit = sawHit || pooled
	}
	if !sawHit {
		t.Fatal("never observed a pooled blinding factor")
	}

	ct, _, err := p.EncryptTracked(big.NewInt(42))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := k.DecryptInt64(ct); err != nil || got != 42 {
		t.Fatalf("EncryptTracked round-trip = %d, %v; want 42", got, err)
	}
}

// TestMatVecMeteredMatchesUnmetered guards the metered path's outputs:
// attaching a meter must not change results.
func TestMatVecMeteredMatchesUnmetered(t *testing.T) {
	k := key(t)
	var m obs.CostMeter
	ev := NewEvaluator(&k.PublicKey, WithCostMeter(&m))
	xs := encryptVec(t, k, []int64{5, -3, 2})
	w := [][]int64{{2, -1, 0}, {0, 4, -7}}
	bias := []int64{1, -1}
	out, err := ev.MatVec(w, bias, xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{2*5 - (-3) + 1, 4*(-3) - 7*2 - 1}
	for o, ct := range out {
		got, err := k.DecryptInt64(ct)
		if err != nil || got != want[o] {
			t.Fatalf("row %d = %d, %v; want %d", o, got, err, want[o])
		}
	}
	st := m.Snapshot()
	if st.Rerands != 2 || st.MulMods == 0 {
		t.Fatalf("matvec accounting looks wrong: %+v", st)
	}
}

// TestEncryptTensorCost pins the key holder's accounting: without a pool
// every encryption is two half-size exponentiations and no pool counter
// moves; through a pool, hits cost none and misses cost two.
func TestEncryptTensorCost(t *testing.T) {
	k := key(t)
	in := tensor.New[int64](5)
	var m obs.CostMeter
	if _, err := EncryptTensor(&k.PublicKey, k.Blinder(nil), in, 2, &m); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Snapshot(), (obs.CostStats{Encrypts: 5, ModExps: 10, MulMods: 10}); got != want {
		t.Fatalf("inline key-holder cost = %+v, want %+v", got, want)
	}
	var pub obs.CostMeter
	if _, err := EncryptTensor(&k.PublicKey, NewRandBlinder(&k.PublicKey, nil), in, 1, &pub); err != nil {
		t.Fatal(err)
	}
	if got, want := pub.Snapshot(), (obs.CostStats{Encrypts: 5, ModExps: 5, MulMods: 10}); got != want {
		t.Fatalf("public cost = %+v, want %+v", got, want)
	}

	p := NewPrivatePool(k, nil, 4, 1)
	defer p.Close()
	var pm obs.CostMeter
	if _, err := EncryptTensor(&k.PublicKey, p, in, 1, &pm); err != nil {
		t.Fatal(err)
	}
	st := pm.Snapshot()
	if st.Encrypts != 5 || st.MulMods != 10 || st.PoolHits+st.PoolMisses != 5 || st.ModExps != 2*st.PoolMisses {
		t.Fatalf("pooled key-holder cost = %+v", st)
	}
}
