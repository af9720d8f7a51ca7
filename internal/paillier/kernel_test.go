package paillier

import (
	"crypto/rand"
	"math"
	"math/big"
	mrand "math/rand"
	"testing"
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
	if WeightBits(math.MinInt64) != 64 {
		t.Fatalf("WeightBits(MinInt64) = %d", WeightBits(math.MinInt64))
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

// TestKernelWindowsAgree pins every window width to the same decrypted
// result, so the auto-selected window cannot silently change semantics.
func TestKernelWindowsAgree(t *testing.T) {
	k := key(t)
	ms := []int64{9, -4, 0, 777, -123}
	ws := []int64{-300, 12345, 99, -1, 0}
	xs := encryptVec(t, k, ms)
	var want int64 = 21
	for i := range ms {
		want += ws[i] * ms[i]
	}
	for win := uint(1); win <= maxWindow; win++ {
		ev := NewEvaluator(&k.PublicKey, WithWindow(win))
		ct, err := dotRow(ev, xs, ws, big.NewInt(21))
		if err != nil {
			t.Fatalf("window %d: %v", win, err)
		}
		got, err := k.DecryptInt64(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("window %d: %d, want %d", win, got, want)
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

// TestKernelColumnUseMismatch: a Dot whose weight signs are not covered by
// the ColumnUse scan must fail loudly, not read a nil table.
func TestKernelColumnUseMismatch(t *testing.T) {
	k := key(t)
	ev := NewEvaluator(&k.PublicKey)
	xs := encryptVec(t, k, []int64{1, 2})
	kern, err := ev.NewLinearKernel(xs, []ColumnUse{UsePos, UsePos}, 1, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kern.Dot(nil, []int64{3, -5}, nil); err == nil {
		t.Error("negative weight without UseNeg table accepted")
	}
	if _, err := kern.Dot([]int{0, 7}, []int64{1, 1}, nil); err == nil {
		t.Error("out-of-range column accepted")
	}
	if _, err := kern.Dot([]int{0}, []int64{1, 1}, nil); err == nil {
		t.Error("index/weight length mismatch accepted")
	}
	if _, err := kern.Dot(nil, []int64{1}, nil); err == nil {
		t.Error("weight/input length mismatch accepted")
	}
}

// TestKernelSparseIndexedDot exercises the idx-mapped form used by the
// convolution path: positions address a subset of kernel columns.
func TestKernelSparseIndexedDot(t *testing.T) {
	k := key(t)
	ev := NewEvaluator(&k.PublicKey)
	ms := []int64{10, 20, 30, 40}
	xs := encryptVec(t, k, ms)
	use := []ColumnUse{UsePos | UseNeg, 0, UseNeg, UsePos}
	kern, err := ev.NewLinearKernel(xs, use, 2, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := kern.Dot([]int{0, 2, 3}, []int64{7, -3, 2}, big.NewInt(-5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.DecryptInt64(ct)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(7*10 - 3*30 + 2*40 - 5)
	if got != want {
		t.Errorf("indexed dot = %d, want %d", got, want)
	}
}

// TestScanColumnUse checks the sign profile derivation.
func TestScanColumnUse(t *testing.T) {
	use, maxBits, err := ScanColumnUse([][]int64{{1, -2, 0}, {4, 8, 0}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if use[0] != UsePos || use[1] != UsePos|UseNeg || use[2] != 0 {
		t.Errorf("use = %v", use)
	}
	if maxBits != 4 {
		t.Errorf("maxBits = %d, want 4", maxBits)
	}
	if _, _, err := ScanColumnUse([][]int64{{1, 2}}, 3); err == nil {
		t.Error("ragged row accepted")
	}
}

// TestPickWindowBounds keeps the automatic window inside [1, maxWindow].
func TestPickWindowBounds(t *testing.T) {
	for _, rows := range []int{0, 1, 32, 4096} {
		for _, bits := range []int{0, 1, 17, 64} {
			w := pickWindow(rows, bits)
			if w < 1 || w > maxWindow {
				t.Fatalf("pickWindow(%d, %d) = %d", rows, bits, w)
			}
		}
	}
}
