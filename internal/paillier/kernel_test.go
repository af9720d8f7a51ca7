package paillier

import (
	"crypto/rand"
	"math"
	"math/big"
	mrand "math/rand"
	"strings"
	"sync"
	"testing"

	"ppstream/internal/obs"
	"ppstream/internal/tensor"
)

// encryptVec encrypts a plaintext vector with the test key.
func encryptVec(t testing.TB, k *PrivateKey, ms []int64) []*Ciphertext {
	t.Helper()
	xs := make([]*Ciphertext, len(ms))
	for i, m := range ms {
		ct, err := k.PublicKey.EncryptInt64(rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
		xs[i] = ct
	}
	return xs
}

// TestMatVecScaledDifferential drives a round's path — Rows, then Pack —
// and the pre-kernel scalar reference over random layers — negative, zero,
// and large weights, with and without biases — and requires the unpacked
// reply to equal the reference rows' decryptions.
func TestMatVecScaledDifferential(t *testing.T) {
	k := key(t)
	rng := mrand.New(mrand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(8)
		w := make([][]int32, rows)
		for o := range w {
			w[o] = make([]int32, cols)
			for i := range w[o] {
				switch rng.Intn(5) {
				case 0:
					w[o][i] = 0
				case 1:
					w[o][i] = -(rng.Int31n(1<<20) + 1)
				case 2:
					w[o][i] = rng.Int31() // large positive
				case 3:
					w[o][i] = -rng.Int31() // large negative
				default:
					w[o][i] = rng.Int31n(1<<16) + 1
				}
			}
		}
		var bias []int64
		if trial%2 == 0 {
			bias = make([]int64, rows)
			for o := range bias {
				bias[o] = rng.Int63n(1<<30) - (1 << 29)
			}
		}
		ms := make([]int64, cols)
		for i := range ms {
			ms[i] = rng.Int63n(2000) - 1000
		}
		xs := encryptVec(t, k, ms)

		got, err := packedRound(k, w, bias, xs)
		if err != nil {
			t.Fatalf("trial %d: kernel: %v", trial, err)
		}
		want, err := MatVecScaledRef(&k.PublicKey, w, bias, xs)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		for o := 0; o < rows; o++ {
			wv, err := k.Decrypt(want[o])
			if err != nil {
				t.Fatal(err)
			}
			if got[o].Cmp(wv) != 0 {
				t.Errorf("trial %d row %d: kernel %s != reference %s", trial, o, got[o], wv)
			}
		}
	}
}

// roundSlotBits is the slot width packedRound uses: wide enough for any
// row of up to 8 int32 weights over inputs in ±1000 with a 30-bit bias.
const roundSlotBits = 80

// packedRound runs the dense layer (w, bias) over xs as a round does —
// Rows, then Pack — and returns the decrypted, unpacked reply.
func packedRound(k *PrivateKey, w [][]int32, bias []int64, xs []*Ciphertext) ([]*big.Int, error) {
	rows := make([]Row, len(w))
	for o := range rows {
		rows[o].W = w[o]
		if bias != nil {
			rows[o].Bias = big.NewInt(bias[o])
		}
	}
	ev := NewEvaluator(&k.PublicKey, nil)
	out, err := ev.Rows(xs, rows)
	if err != nil {
		return nil, err
	}
	packed, err := ev.Pack(out, roundSlotBits, 2)
	if err != nil {
		return nil, err
	}
	vals, err := k.Unpack(packed, roundSlotBits, len(rows), 2)
	if err != nil {
		return nil, err
	}
	return vals.Data(), nil
}

// TestKernelMinInt32Weight exercises the magnitude handling at the int32
// boundary, where a naive negation overflows.
func TestKernelMinInt32Weight(t *testing.T) {
	if weightMagnitude(math.MinInt32) != 1<<31 {
		t.Fatalf("weightMagnitude(MinInt32) = %d", weightMagnitude(math.MinInt32))
	}
	k := key(t)
	xs := encryptVec(t, k, []int64{3})
	ws := []int32{math.MinInt32}
	got, err := dotRow(NewEvaluator(&k.PublicKey, nil), xs, ws, big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := DotScaledRef(&k.PublicKey, xs, ws, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := k.Decrypt(got)
	wv, _ := k.Decrypt(want)
	if g.Cmp(wv) != 0 {
		t.Errorf("MinInt32 weight: kernel %s != reference %s", g, wv)
	}
}

// keyOfBits generates a key of the given size for tests that sweep sizes.
func keyOfBits(t testing.TB, bits int) *PrivateKey {
	t.Helper()
	k, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// randomWeights draws a rows×cols matrix of weights up to maxBits bits, a
// third of them zero and half of the rest negative.
func randomWeights(rng *mrand.Rand, rows, cols, maxBits int) [][]int32 {
	w := make([][]int32, rows)
	for o := range w {
		w[o] = make([]int32, cols)
		for i := range w[o] {
			if rng.Intn(3) == 0 {
				continue
			}
			v := rng.Int31()>>(31-maxBits) | 1
			if rng.Intn(2) == 0 {
				v = -v
			}
			w[o][i] = v
		}
	}
	return w
}

// TestRowsStrategiesSameRingElement: rows are unblinded and deterministic,
// so both strategies and the scalar reference must produce the SAME ring
// element, not merely ciphertexts that decrypt alike — over random layers
// at three key sizes and weights from 1 to 31 bits, with the edge rows: an
// all-zero row (exactly the bias embedding 1 + b·n), an all-negative row,
// math.MinInt32, and a one-column layer.
func TestRowsStrategiesSameRingElement(t *testing.T) {
	rng := mrand.New(mrand.NewSource(15))
	for _, keyBits := range []int{256, 512, 1024} {
		k := keyOfBits(t, keyBits)
		ev := NewEvaluator(&k.PublicKey, nil)
		for _, weightBits := range []int{1, 4, 16, 31} {
			for _, cols := range []int{1, 7} {
				w := randomWeights(rng, 5, cols, weightBits)
				allNeg := make([]int32, cols)
				for i := range allNeg {
					allNeg[i] = -(rng.Int31()>>(31-weightBits) | 1)
				}
				edge := make([]int32, cols)
				edge[0] = math.MinInt32
				w = append(w, make([]int32, cols), allNeg, edge)
				bias := make([]int64, len(w))
				for o := range bias {
					bias[o] = rng.Int63n(1<<40) - 1<<39
				}
				bias[0] = 0
				ms := make([]int64, cols)
				for i := range ms {
					ms[i] = rng.Int63n(2000) - 1000
				}
				xs := encryptVec(t, k, ms)
				rows := make([]Row, len(w))
				for o := range rows {
					rows[o] = Row{W: w[o], Bias: big.NewInt(bias[o])}
				}
				want, err := MatVecScaledRef(&k.PublicKey, w, bias, xs)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range []Strategy{Tables, Buckets} {
					got, err := ev.rows(xs, rows, s)
					if err != nil {
						t.Fatalf("%d-bit key, %d-bit weights, %d cols, %v: %v", keyBits, weightBits, cols, s, err)
					}
					for o := range got {
						if got[o].c.Cmp(want[o].c) != 0 {
							t.Errorf("%d-bit key, %d-bit weights, %d cols, %v: row %d differs from the reference ring element", keyBits, weightBits, cols, s, o)
						}
					}
					// The all-zero row is its bias embedding, bit for bit.
					zero := len(w) - 3
					embed, err := k.encryptWithBlinding(big.NewInt(bias[zero]), big.NewInt(1))
					if err != nil {
						t.Fatal(err)
					}
					if got[zero].c.Cmp(embed.c) != 0 {
						t.Errorf("%d-bit key, %v: all-zero row is not 1 + b·n", keyBits, s)
					}
				}
			}
		}
	}
}

// TestRowsSparseIndexed exercises the idx-mapped form the convolution path
// uses — positions address a subset of the columns, some twice, and the
// view is nil where no row reads — on both strategies, against the dense
// reference over the same weights.
func TestRowsSparseIndexed(t *testing.T) {
	k := key(t)
	ev := NewEvaluator(&k.PublicKey, nil)
	ms := []int64{10, 20, 30, 40, 50}
	xs := encryptVec(t, k, ms)
	rows := []Row{
		{Idx: []int32{0, 2, 3}, W: []int32{7, -3, 2}, Bias: big.NewInt(-5)},
		{Idx: []int32{3, 3, 0}, W: []int32{100, -37, -1}},
		{Idx: []int32{}, W: []int32{}, Bias: big.NewInt(4)},
		{Idx: []int32{2}, W: []int32{-9}},
	}
	dense := [][]int32{{7, 0, -3, 2, 0}, {-1, 0, 0, 63, 0}, {0, 0, 0, 0, 0}, {0, 0, -9, 0, 0}}
	want, err := MatVecScaledRef(&k.PublicKey, dense, []int64{-5, 0, 4, 0}, xs)
	if err != nil {
		t.Fatal(err)
	}
	view := append([]*Ciphertext(nil), xs...)
	view[1], view[4] = nil, nil // never read
	for _, s := range []Strategy{Tables, Buckets} {
		got, err := ev.rows(view, rows, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for o := range got {
			if got[o].c.Cmp(want[o].c) != 0 {
				t.Errorf("%v: indexed row %d differs from the dense reference", s, o)
			}
		}
	}
}

// TestRowsRejectsUnsentAndCorruptInputs: a row that reads a nil view entry
// or a column out of range fails before any arithmetic, a batch whose
// denominators are not invertible fails at the inversion, and none of it
// panics — under either strategy.
func TestRowsRejectsUnsentAndCorruptInputs(t *testing.T) {
	k := key(t)
	ev := NewEvaluator(&k.PublicKey, nil)
	good := encryptVec(t, k, []int64{1, 2, 3})
	unsent := []*Ciphertext{good[0], nil, good[2]}
	// p shares a factor with n, so it has no inverse modulo n².
	corrupt := []*Ciphertext{good[0], {c: k.P}, good[2]}
	for _, tc := range []struct {
		name string
		xs   []*Ciphertext
		rows []Row
		want string // substring of the error; "" means the call succeeds
	}{
		{"unsent entry read", unsent, []Row{{W: []int32{1, 5, 0}}}, "not sent"},
		{"unsent entry read through idx", unsent, []Row{{W: []int32{1, 0, 0}}, {Idx: []int32{2, 1}, W: []int32{3, -4}}}, "not sent"},
		{"unsent entry under a zero weight", unsent, []Row{{W: []int32{1, 0, -2}}}, ""},
		{"nil ciphertext value", []*Ciphertext{good[0], {}, good[2]}, []Row{{W: []int32{0, 1, 0}}}, "not sent"},
		{"column past the end", good, []Row{{Idx: []int32{0, 3}, W: []int32{1, 1}}}, "out of range"},
		{"negative column", good, []Row{{Idx: []int32{-1}, W: []int32{1}}}, "out of range"},
		{"index and weight lengths differ", good, []Row{{Idx: []int32{0}, W: []int32{1, 1}}}, "index list"},
		{"dense row of the wrong length", good, []Row{{W: []int32{1}}}, "length"},
		{"denominator shares a factor with n", corrupt, []Row{{W: []int32{2, 0, -1}}, {W: []int32{0, -3, 1}}}, "not invertible"},
		{"corrupt input only in a numerator", corrupt, []Row{{W: []int32{0, 3, -1}}}, ""},
	} {
		for _, s := range []Strategy{Tables, Buckets} {
			var m obs.CostMeter
			_, err := ev.WithCost(&m).rows(tc.xs, tc.rows, s)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s, %v: %v", tc.name, s, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s, %v: error %v, want one containing %q", tc.name, s, err, tc.want)
			}
			if st := m.Snapshot(); tc.want != "" && tc.want != "not invertible" && !st.IsZero() {
				t.Errorf("%s, %v: arithmetic ran before the rejection: %+v", tc.name, s, st)
			}
		}
	}
}

// TestKernelBlindingRegression: a layer's rows packed twice must give
// different reply ring elements (each reply ciphertext is re-randomized),
// and the reply holding only an all-zero row must be a fresh blinded
// encryption of the bias — never its deterministic packing, the embedding
// 1 + (b + offset)·n.
func TestKernelBlindingRegression(t *testing.T) {
	k := key(t)
	ev := NewEvaluator(&k.PublicKey, nil)
	xs := encryptVec(t, k, []int64{5, 6})
	rows := []Row{{W: []int32{2, -3}, Bias: big.NewInt(1)}, {W: []int32{0, 0}, Bias: big.NewInt(9)}}
	slotBits := k.Bits()/2 + 1 // one row per reply ciphertext
	var replies [2]*CipherTensor
	for i := range replies {
		out, err := ev.Rows(xs, rows)
		if err != nil {
			t.Fatal(err)
		}
		if replies[i], err = ev.Pack(out, slotBits, 1); err != nil {
			t.Fatal(err)
		}
		got, err := k.Unpack(replies[i], slotBits, len(rows), 1)
		if err != nil {
			t.Fatal(err)
		}
		for o, want := range []int64{2*5 - 3*6 + 1, 9} {
			if got.AtFlat(o).Int64() != want {
				t.Errorf("row %d unpacks to %d, want %d", o, got.AtFlat(o), want)
			}
		}
	}
	for g := range replies[0].Data() {
		if replies[0].AtFlat(g).c.Cmp(replies[1].AtFlat(g).c) == 0 {
			t.Errorf("reply %d: two packs produced identical ciphertexts (unblinded output)", g)
		}
	}
	offset := new(big.Int).Lsh(one, uint(slotBits-1))
	det, err := k.encryptWithBlinding(offset.Add(offset, big.NewInt(9)), big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, reply := range replies {
		if reply.AtFlat(1).c.Cmp(det.c) == 0 {
			t.Error("all-zero row packed into its deterministic embedding")
		}
	}
}

// TestEvaluatorWithPool runs rounds through one pooled evaluator from
// concurrent callers (run under -race in CI): every reply unpacks to the
// layer's values whether its factor was a hit or a miss, and each reply
// ciphertext is metered as exactly one of the two.
func TestEvaluatorWithPool(t *testing.T) {
	k := key(t)
	p := NewPool(&k.PublicKey, rand.Reader, 4, 2)
	defer p.Close()
	base := NewEvaluator(&k.PublicKey, p)
	xs := encryptVec(t, k, []int64{4, -2, 8})
	rows := []Row{{W: []int32{1, -1, 2}}, {W: []int32{0, 0, 0}, Bias: big.NewInt(3)}}
	want := []int64{4 + 2 + 16, 3}
	slotBits := k.Bits()/2 + 1 // one row per reply ciphertext
	const callers, each = 4, 5
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var m obs.CostMeter
			ev := base.WithCost(&m)
			for i := 0; i < each; i++ {
				out, err := ev.Rows(xs, rows)
				var packed *CipherTensor
				if err == nil {
					packed, err = ev.Pack(out, slotBits, 2)
				}
				var got *tensor.Tensor[*big.Int]
				if err == nil {
					got, err = k.Unpack(packed, slotBits, len(rows), 1)
				}
				if err != nil {
					t.Error(err)
					return
				}
				for o, wv := range want {
					if got.AtFlat(o).Int64() != wv {
						t.Errorf("row %d = %d, want %d", o, got.AtFlat(o), wv)
					}
				}
			}
			st := m.Snapshot()
			if st.Rerands != each*uint64(len(rows)) || st.PoolHits+st.PoolMisses != st.Rerands || st.ModExps != st.PoolMisses {
				t.Errorf("pooled accounting: %+v", st)
			}
		}()
	}
	wg.Wait()
}
