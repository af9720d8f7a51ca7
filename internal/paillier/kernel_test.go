package paillier

import (
	"crypto/rand"
	"math"
	"math/big"
	mrand "math/rand"
	"strings"
	"testing"

	"ppstream/internal/obs"
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

// TestMatVecScaledDifferential drives the kernel path and the pre-kernel
// scalar reference over random layers — negative, zero, and large weights,
// with and without biases — and requires bit-identical decrypted outputs.
func TestMatVecScaledDifferential(t *testing.T) {
	k := key(t)
	rng := mrand.New(mrand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(8)
		w := make([][]int64, rows)
		for o := range w {
			w[o] = make([]int64, cols)
			for i := range w[o] {
				switch rng.Intn(5) {
				case 0:
					w[o][i] = 0
				case 1:
					w[o][i] = -(rng.Int63n(1<<20) + 1)
				case 2:
					w[o][i] = rng.Int63() // large positive
				case 3:
					w[o][i] = -rng.Int63() // large negative
				default:
					w[o][i] = rng.Int63n(1<<16) + 1
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

		got, err := MatVecScaled(&k.PublicKey, w, bias, xs, 3)
		if err != nil {
			t.Fatalf("trial %d: kernel: %v", trial, err)
		}
		want, err := MatVecScaledRef(&k.PublicKey, w, bias, xs, 3)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		for o := 0; o < rows; o++ {
			g, err := k.Decrypt(got[o])
			if err != nil {
				t.Fatal(err)
			}
			wv, err := k.Decrypt(want[o])
			if err != nil {
				t.Fatal(err)
			}
			if g.Cmp(wv) != 0 {
				t.Errorf("trial %d row %d: kernel %s != reference %s", trial, o, g, wv)
			}
		}
	}
}

// TestKernelMinInt64Weight exercises the magnitude handling at the int64
// boundary, where a naive negation overflows.
func TestKernelMinInt64Weight(t *testing.T) {
	if weightMagnitude(math.MinInt64) != 1<<63 {
		t.Fatalf("weightMagnitude(MinInt64) = %d", weightMagnitude(math.MinInt64))
	}
	k := key(t)
	xs := encryptVec(t, k, []int64{3})
	ws := []int64{math.MinInt64}
	got, err := dotRow(NewEvaluator(&k.PublicKey), xs, ws, big.NewInt(5))
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
		t.Errorf("MinInt64 weight: kernel %s != reference %s", g, wv)
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
func randomWeights(rng *mrand.Rand, rows, cols, maxBits int) [][]int64 {
	w := make([][]int64, rows)
	for o := range w {
		w[o] = make([]int64, cols)
		for i := range w[o] {
			if rng.Intn(3) == 0 {
				continue
			}
			v := rng.Int63()>>(63-maxBits) | 1
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
// at three key sizes and weights from 1 to 63 bits, with the edge rows: an
// all-zero row (exactly the bias embedding 1 + b·n), an all-negative row,
// math.MinInt64, and a one-column layer.
func TestRowsStrategiesSameRingElement(t *testing.T) {
	rng := mrand.New(mrand.NewSource(15))
	for _, keyBits := range []int{256, 512, 1024} {
		k := keyOfBits(t, keyBits)
		ev := NewEvaluator(&k.PublicKey)
		for _, weightBits := range []int{1, 4, 16, 63} {
			for _, cols := range []int{1, 7} {
				w := randomWeights(rng, 5, cols, weightBits)
				allNeg := make([]int64, cols)
				for i := range allNeg {
					allNeg[i] = -(rng.Int63()>>(63-weightBits) | 1)
				}
				edge := make([]int64, cols)
				edge[0] = math.MinInt64
				w = append(w, make([]int64, cols), allNeg, edge)
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
				want, err := MatVecScaledRef(&k.PublicKey, w, bias, xs, 1)
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
					embed, err := k.PublicKey.EncryptWithBlinding(big.NewInt(bias[zero]), big.NewInt(1))
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
	ev := NewEvaluator(&k.PublicKey)
	ms := []int64{10, 20, 30, 40, 50}
	xs := encryptVec(t, k, ms)
	rows := []Row{
		{Idx: []int{0, 2, 3}, W: []int64{7, -3, 2}, Bias: big.NewInt(-5)},
		{Idx: []int{3, 3, 0}, W: []int64{100, -37, -1}},
		{Idx: []int{}, W: []int64{}, Bias: big.NewInt(4)},
		{Idx: []int{2}, W: []int64{-9}},
	}
	dense := [][]int64{{7, 0, -3, 2, 0}, {-1, 0, 0, 63, 0}, {0, 0, 0, 0, 0}, {0, 0, -9, 0, 0}}
	want, err := MatVecScaledRef(&k.PublicKey, dense, []int64{-5, 0, 4, 0}, xs, 1)
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
	ev := NewEvaluator(&k.PublicKey)
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
		{"unsent entry read", unsent, []Row{{W: []int64{1, 5, 0}}}, "not sent"},
		{"unsent entry read through idx", unsent, []Row{{W: []int64{1, 0, 0}}, {Idx: []int{2, 1}, W: []int64{3, -4}}}, "not sent"},
		{"unsent entry under a zero weight", unsent, []Row{{W: []int64{1, 0, -2}}}, ""},
		{"nil ciphertext value", []*Ciphertext{good[0], {}, good[2]}, []Row{{W: []int64{0, 1, 0}}}, "not sent"},
		{"column past the end", good, []Row{{Idx: []int{0, 3}, W: []int64{1, 1}}}, "out of range"},
		{"negative column", good, []Row{{Idx: []int{-1}, W: []int64{1}}}, "out of range"},
		{"index and weight lengths differ", good, []Row{{Idx: []int{0}, W: []int64{1, 1}}}, "index list"},
		{"dense row of the wrong length", good, []Row{{W: []int64{1}}}, "length"},
		{"denominator shares a factor with n", corrupt, []Row{{W: []int64{2, 0, -1}}, {W: []int64{0, -3, 1}}}, "not invertible"},
		{"corrupt input only in a numerator", corrupt, []Row{{W: []int64{0, 3, -1}}}, ""},
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

// TestKernelBlindingRegression: evaluating the same layer twice must give
// different ciphertext ring elements (outputs are re-randomized), and a row
// with all-zero weights must be a fresh blinded encryption of the bias —
// never the deterministic embedding (1 + b·n).
func TestKernelBlindingRegression(t *testing.T) {
	k := key(t)
	w := [][]int64{{2, -3}, {0, 0}}
	bias := []int64{1, 9}
	xs := encryptVec(t, k, []int64{5, 6})

	a, err := MatVecScaled(&k.PublicKey, w, bias, xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MatVecScaled(&k.PublicKey, w, bias, xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for o := range a {
		if a[o].Value().Cmp(b[o].Value()) == 0 {
			t.Errorf("row %d: two evaluations produced identical ciphertexts (unblinded output)", o)
		}
	}
	// The all-zero row must not be the deterministic encryption of the bias.
	det, err := k.PublicKey.EncryptWithBlinding(big.NewInt(9), big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []*Ciphertext{a[1], b[1]} {
		if out.Value().Cmp(det.Value()) == 0 {
			t.Error("all-zero row produced the deterministic bias embedding")
		}
		got, err := k.DecryptInt64(out)
		if err != nil {
			t.Fatal(err)
		}
		if got != 9 {
			t.Errorf("all-zero row decrypts to %d, want 9", got)
		}
	}
}

// TestEvaluatorWithPool runs the kernel with pooled blinding factors.
func TestEvaluatorWithPool(t *testing.T) {
	k := key(t)
	p := NewPool(&k.PublicKey, rand.Reader, 16, 2)
	defer p.Close()
	ev := NewEvaluator(&k.PublicKey, WithBlinder(p))
	xs := encryptVec(t, k, []int64{4, -2, 8})
	out, err := ev.MatVec([][]int64{{1, -1, 2}, {0, 0, 0}}, []int64{0, 3}, xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{4 + 2 + 16, 3}
	for o, wv := range want {
		got, err := k.DecryptInt64(out[o])
		if err != nil {
			t.Fatal(err)
		}
		if got != wv {
			t.Errorf("row %d = %d, want %d", o, got, wv)
		}
	}
}
