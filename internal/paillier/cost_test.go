package paillier

import (
	"math/big"
	mrand "math/rand"
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

// TestRowsCostByHand pins the count on a call small enough to derive by
// hand, under each strategy: xs = [x0, x1], rows [13, −1]+5 and [−2, 3].
//
// Finish, either way: the bias multiplies row 0's numerator (1); two
// denominators cost 3·(2−1) in the batched inversion and one ModInverse;
// each row divides its numerator (2) — 6.
//
// Tables are cheapest at window 2: both columns get x, x², x³ (2 each);
// 13 = (3,1) is two lookups and one block of 2 squarings (3); 1, 2 and 3
// are single lookups (0). 4 + 3 + 6 = 13.
// Buckets are cheapest at window 1, plain square-and-multiply with nothing
// to collapse: 13 = 0b1101 is 3 squarings and 2 multiplies after the
// leading bit (5), 2 = 0b10 one squaring (1), 3 = 0b11 one of each (2),
// 1 nothing. 8 + 6 = 14.
func TestRowsCostByHand(t *testing.T) {
	k := key(t)
	xs := encryptVec(t, k, []int64{4, 7})
	rows := []Row{{W: []int64{13, -1}, Bias: big.NewInt(5)}, {W: []int64{-2, 3}}}
	costs, err := countRows(xs, rows, k.N2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		among []Strategy
		want  RowPlan
	}{
		{[]Strategy{Tables}, RowPlan{Strategy: Tables, Window: 2, MulMods: 13, ModInverses: 1}},
		{[]Strategy{Buckets}, RowPlan{Strategy: Buckets, Window: 1, MulMods: 14, ModInverses: 1}},
		{[]Strategy{Tables, Buckets}, RowPlan{Strategy: Tables, Window: 2, MulMods: 13, ModInverses: 1}},
	} {
		if got := costs.cheapest(tc.among...); got != tc.want {
			t.Errorf("among %v: plan %+v, want %+v", tc.among, got, tc.want)
		}
		var m obs.CostMeter
		out, err := NewEvaluator(&k.PublicKey, WithCostMeter(&m)).rows(xs, rows, 1, tc.among...)
		if err != nil {
			t.Fatal(err)
		}
		for o, want := range []int64{13*4 - 7 + 5, -2*4 + 3*7} {
			if got, err := k.DecryptInt64(out[o]); err != nil || got != want {
				t.Errorf("among %v: row %d = %d, %v; want %d", tc.among, o, got, err, want)
			}
		}
		if got, want := m.Snapshot(), (obs.CostStats{MulMods: tc.want.MulMods, ModInverses: 1}); got != want {
			t.Errorf("among %v: metered %+v, want %+v", tc.among, got, want)
		}
	}
}

// TestRowsCostSharedSquarings checks that a product squares once for all
// its inputs: [201, 77] = [0b11001001, 0b1001101] at window 1 is ONE chain
// of 7 squarings and 4 + 4 − 1 multiplies, 14 — not the 7 + 6 squarings of
// two separate exponentiations — and no wider window beats it (window 2
// costs 6 + 5 and then 4 more, for tables or to collapse buckets).
func TestRowsCostSharedSquarings(t *testing.T) {
	k := key(t)
	xs := encryptVec(t, k, []int64{2, -3})
	rows := []Row{{W: []int64{201, 77}}}
	for _, s := range []Strategy{Tables, Buckets} {
		var m obs.CostMeter
		out, err := NewEvaluator(&k.PublicKey, WithCostMeter(&m)).rows(xs, rows, 1, s)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := k.DecryptInt64(out[0]); err != nil || got != 201*2-77*3 {
			t.Fatalf("%v: row = %d, %v; want %d", s, got, err, 201*2-77*3)
		}
		if got := m.Snapshot(); got != (obs.CostStats{MulMods: 14}) {
			t.Errorf("%v: metered %+v, want 14 mulmods", s, got)
		}
	}
}

// TestRowsMeteredEqualsPredicted: over random dense and indexed layers of
// every weight width, what the meter reads after a call is exactly what
// the count said it would be, for both strategies and any worker count —
// the meter counts the multiplications as they run, so this is the check
// that countRows and the evaluation agree.
func TestRowsMeteredEqualsPredicted(t *testing.T) {
	k := key(t)
	rng := mrand.New(mrand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		cols := 1 + rng.Intn(12)
		xs := encryptVec(t, k, make([]int64, cols))
		w := randomWeights(rng, 1+rng.Intn(9), cols, 1+rng.Intn(63))
		rows := make([]Row, len(w))
		for o := range rows {
			rows[o].W = w[o]
			if trial%2 == 1 {
				// Indexed: a random selection of columns, repeats allowed.
				rows[o].Idx = make([]int, rng.Intn(2*cols))
				rows[o].W = make([]int64, len(rows[o].Idx))
				for j := range rows[o].Idx {
					rows[o].Idx[j] = rng.Intn(cols)
					rows[o].W[j] = w[o][rows[o].Idx[j]]
				}
			}
			if rng.Intn(2) == 0 {
				rows[o].Bias = big.NewInt(rng.Int63n(99) - 49)
			}
		}
		costs, err := countRows(xs, rows, k.N2)
		if err != nil {
			t.Fatal(err)
		}
		for _, among := range [][]Strategy{{Tables}, {Buckets}, {Tables, Buckets}} {
			plan := costs.cheapest(among...)
			var m obs.CostMeter
			if _, err := NewEvaluator(&k.PublicKey, WithCostMeter(&m)).rows(xs, rows, 1+trial%3, among...); err != nil {
				t.Fatal(err)
			}
			if got, want := m.Snapshot(), (obs.CostStats{MulMods: plan.MulMods, ModInverses: plan.ModInverses}); got != want {
				t.Errorf("trial %d, %v: metered %+v, predicted %+v", trial, among, got, plan)
			}
		}
	}
}

// TestWithCostIsolation derives two metered views from one shared
// evaluator and checks their counts stay separate — the per-request
// attribution property the session layer relies on.
func TestWithCostIsolation(t *testing.T) {
	k := key(t)
	base := NewEvaluator(&k.PublicKey)
	var m1, m2 obs.CostMeter
	ev1, ev2 := base.WithCost(&m1), base.WithCost(&m2)

	xs := encryptVec(t, k, []int64{1, 2, 3})
	if _, err := dotRow(ev1, xs, []int64{1, 1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := dotRow(ev2, xs, []int64{2, 0, -1}, nil); err != nil {
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
