package paillier

import (
	"crypto/rand"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"
	"time"

	"ppstream/internal/obs"
	"ppstream/internal/tensor"
)

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
	rows := []Row{{W: []int32{13, -1}, Bias: big.NewInt(5)}, {W: []int32{-2, 3}}}
	costs, err := countRows(len(xs), rows, xs, k.N2)
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
		out, err := NewEvaluator(&k.PublicKey, nil).WithCost(&m).rows(xs, rows, tc.among...)
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
	rows := []Row{{W: []int32{201, 77}}}
	for _, s := range []Strategy{Tables, Buckets} {
		var m obs.CostMeter
		out, err := NewEvaluator(&k.PublicKey, nil).WithCost(&m).rows(xs, rows, s)
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
// the count said it would be, for both strategies —
// the meter counts the multiplications as they run, so this is the check
// that countRows and the evaluation agree.
func TestRowsMeteredEqualsPredicted(t *testing.T) {
	k := key(t)
	rng := mrand.New(mrand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		cols := 1 + rng.Intn(12)
		xs := encryptVec(t, k, make([]int64, cols))
		w := randomWeights(rng, 1+rng.Intn(9), cols, 1+rng.Intn(31))
		rows := make([]Row, len(w))
		for o := range rows {
			rows[o].W = w[o]
			if trial%2 == 1 {
				// Indexed: a random selection of columns, repeats allowed.
				rows[o].Idx = make([]int32, rng.Intn(2*cols))
				rows[o].W = make([]int32, len(rows[o].Idx))
				for j := range rows[o].Idx {
					rows[o].Idx[j] = rng.Int31n(int32(cols))
					rows[o].W[j] = w[o][rows[o].Idx[j]]
				}
			}
			if rng.Intn(2) == 0 {
				rows[o].Bias = big.NewInt(rng.Int63n(99) - 49)
			}
		}
		costs, err := countRows(len(xs), rows, xs, k.N2)
		if err != nil {
			t.Fatal(err)
		}
		for _, among := range [][]Strategy{{Tables}, {Buckets}, {Tables, Buckets}} {
			plan := costs.cheapest(among...)
			var m obs.CostMeter
			if _, err := NewEvaluator(&k.PublicKey, nil).WithCost(&m).rows(xs, rows, among...); err != nil {
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
	base := NewEvaluator(&k.PublicKey, nil)
	var m1, m2 obs.CostMeter
	ev1, ev2 := base.WithCost(&m1), base.WithCost(&m2)

	xs := encryptVec(t, k, []int64{1, 2, 3})
	if _, err := dotRow(ev1, xs, []int32{1, 1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := dotRow(ev2, xs, []int32{2, 0, -1}, nil); err != nil {
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

// TestBlindingCostHitMiss pins what a pooled Evaluator.Pack meters per
// reply ciphertext, the counts the benchmark's paillier.pool_hit_ratio
// and modexps_per_req read: on a hit {Rerands 1, PoolHits 1} and no
// exponentiation, on a miss {Rerands 1, PoolMisses 1, ModExps 1}, with
// Pack's multiplications on top either way. The hit pool is full before
// the draws; the miss pool's only reader fails, so it never fills.
func TestBlindingCostHitMiss(t *testing.T) {
	k := key(t)
	const slotBits = 40
	rows := encryptVec(t, k, make([]int64, k.Slots(slotBits)+1)) // two reply ciphertexts
	dead := &flakyReader{under: rand.Reader}
	dead.failures.Store(1 << 30)
	for _, tc := range []struct {
		name   string
		random io.Reader
		want   obs.CostStats
	}{
		{"hit", rand.Reader, obs.CostStats{Rerands: 2, PoolHits: 2}},
		{"miss", dead, obs.CostStats{Rerands: 2, PoolMisses: 2, ModExps: 2}},
	} {
		p := NewPool(&k.PublicKey, tc.random, 2, 1)
		deadline := time.Now().Add(10 * time.Second)
		for tc.name == "hit" && len(p.ch) < cap(p.ch) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		var m obs.CostMeter
		packed, err := NewEvaluator(&k.PublicKey, p).WithCost(&m).Pack(rows, slotBits, 1)
		p.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := k.Unpack(packed, slotBits, len(rows), 1); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tc.want.MulMods = k.PackMulMods(len(rows), slotBits)
		if got := m.Snapshot(); got != tc.want {
			t.Errorf("%s: metered %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestMatVecMeteredMatchesUnmetered guards the metered path's outputs:
// attaching a meter changes neither a layer's rows, ring element for ring
// element, nor what its packed reply unpacks to.
func TestMatVecMeteredMatchesUnmetered(t *testing.T) {
	k := key(t)
	var m obs.CostMeter
	plain, metered := NewEvaluator(&k.PublicKey, nil), NewEvaluator(&k.PublicKey, nil).WithCost(&m)
	xs := encryptVec(t, k, []int64{5, -3, 2})
	rows := []Row{{W: []int32{2, -1, 0}, Bias: big.NewInt(1)}, {W: []int32{0, 4, -7}, Bias: big.NewInt(-1)}}
	a, err := plain.Rows(xs, rows)
	if err != nil {
		t.Fatal(err)
	}
	b, err := metered.Rows(xs, rows)
	if err != nil {
		t.Fatal(err)
	}
	for o := range a {
		if a[o].c.Cmp(b[o].c) != 0 {
			t.Fatalf("row %d: metered ring element differs", o)
		}
	}
	const slotBits = 16
	packed, err := metered.Pack(b, slotBits, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Unpack(packed, slotBits, len(rows), 1)
	if err != nil {
		t.Fatal(err)
	}
	for o, want := range []int64{2*5 - (-3) + 1, 4*(-3) - 7*2 - 1} {
		if got.AtFlat(o).Int64() != want {
			t.Fatalf("row %d = %d; want %d", o, got.AtFlat(o), want)
		}
	}
	if st := m.Snapshot(); st.Rerands != uint64(packed.Size()) || st.MulMods == 0 {
		t.Fatalf("accounting looks wrong: %+v", st)
	}
}

// TestEncryptTensorCost pins the key holder's accounting, the counts the
// benchmark's paillier.encrypts_per_req and modexps_per_req read: every
// encryption is two half-size exponentiations and two multiplications,
// and no pool counter moves, at any thread count.
func TestEncryptTensorCost(t *testing.T) {
	k := key(t)
	in := tensor.New[int64](5)
	for _, workers := range []int{1, 2} {
		var m obs.CostMeter
		if _, err := k.EncryptTensor(nil, in, workers, &m); err != nil {
			t.Fatal(err)
		}
		if got, want := m.Snapshot(), (obs.CostStats{Encrypts: 5, ModExps: 10, MulMods: 10}); got != want {
			t.Fatalf("%d workers: key-holder cost = %+v, want %+v", workers, got, want)
		}
	}
}
