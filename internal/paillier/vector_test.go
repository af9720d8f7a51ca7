package paillier

import (
	"crypto/rand"
	"math/big"
	"testing"

	"ppstream/internal/tensor"
)

func TestEncryptDecryptTensorRoundTrip(t *testing.T) {
	k := key(t)
	in := tensor.MustFromSlice([]int64{1, -2, 3, -4, 5, 0}, 2, 3)
	ct, err := k.EncryptTensor(rand.Reader, in, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ct.Shape().Equal(in.Shape()) {
		t.Fatalf("ciphertext shape %v", ct.Shape())
	}
	out, err := DecryptTensorBig(k, ct, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range in.Data() {
		if !out.AtFlat(i).IsInt64() || out.AtFlat(i).Int64() != v {
			t.Errorf("round trip at %d: %d -> %d", i, v, out.AtFlat(i))
		}
	}
}

func TestDecryptTensorNilElement(t *testing.T) {
	k := key(t)
	ct := tensor.New[*Ciphertext](2)
	if _, err := DecryptTensorBig(k, ct, 1); err == nil {
		t.Error("nil ciphertext element accepted")
	}
}

// dotRow evaluates one dense row through a one-row Rows call.
func dotRow(ev *Evaluator, xs []*Ciphertext, ws []int64, bias *big.Int) (*Ciphertext, error) {
	out, err := ev.Rows(xs, []Row{{W: ws, Bias: bias}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// TestKernelRow verifies the encrypted linear operation of paper Eq. (3):
// Σ w_i·m_i + b computed as Π E(m_i)^{w_i}·E(b).
func TestKernelRow(t *testing.T) {
	k := key(t)
	ms := []int64{3, -1, 4, 1, -5}
	ws := []int64{2, 7, -1, 8, 2}
	const bias = 11
	xs := make([]*Ciphertext, len(ms))
	for i, m := range ms {
		var err error
		xs[i], err = k.PublicKey.EncryptInt64(rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
	}
	ct, err := dotRow(NewEvaluator(&k.PublicKey, nil), xs, ws, big.NewInt(bias))
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.DecryptInt64(ct)
	if err != nil {
		t.Fatal(err)
	}
	var want int64 = bias
	for i := range ms {
		want += ws[i] * ms[i]
	}
	if got != want {
		t.Errorf("row = %d, want %d", got, want)
	}
}

func TestKernelRowErrors(t *testing.T) {
	k := key(t)
	x, _ := k.PublicKey.EncryptInt64(rand.Reader, 1)
	if _, err := dotRow(NewEvaluator(&k.PublicKey, nil), []*Ciphertext{x}, []int64{1, 2}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := dotRow(NewEvaluator(&k.PublicKey, nil), []*Ciphertext{nil}, []int64{1}, nil); err == nil {
		t.Error("nil ciphertext accepted")
	}
}

func TestKernelRowAllZeroWeights(t *testing.T) {
	k := key(t)
	x, _ := k.PublicKey.EncryptInt64(rand.Reader, 123)
	ct, err := dotRow(NewEvaluator(&k.PublicKey, nil), []*Ciphertext{x}, []int64{0}, big.NewInt(9))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := k.DecryptInt64(ct)
	if got != 9 {
		t.Errorf("zero-weight dot = %d, want 9", got)
	}
}

// TestMatVecScaled runs a scaled FC layer as a round does and checks the
// unpacked reply; the kernel and the reference both refuse a row whose
// length is not the input's, and the reference a bias of the wrong length.
func TestMatVecScaled(t *testing.T) {
	k := key(t)
	w := [][]int64{{1, 2}, {-3, 4}, {0, 0}}
	bias := []int64{10, -20, 5}
	xs := encryptVec(t, k, []int64{7, -6})
	got, err := packedRound(k, w, bias, xs)
	if err != nil {
		t.Fatal(err)
	}
	for o, want := range []int64{1*7 + 2*(-6) + 10, -3*7 + 4*(-6) - 20, 5} {
		if got[o].Int64() != want {
			t.Errorf("row %d = %d, want %d", o, got[o], want)
		}
	}
	if _, err := packedRound(k, [][]int64{{1}}, nil, xs); err == nil {
		t.Error("kernel accepted a row length mismatch")
	}
	if _, err := MatVecScaledRef(&k.PublicKey, w, []int64{1}, xs, 1); err == nil {
		t.Error("reference accepted a bias length mismatch")
	}
	if _, err := MatVecScaledRef(&k.PublicKey, [][]int64{{1}}, nil, xs, 1); err == nil {
		t.Error("reference accepted a row length mismatch")
	}
}

// TestPoolEncrypt: every factor the pool serves is an n-th residue, so a
// ciphertext blinded with it decrypts to its message.
func TestPoolEncrypt(t *testing.T) {
	k := key(t)
	p := NewPool(&k.PublicKey, rand.Reader, 8, 2)
	defer p.Close()
	for _, m := range []int64{0, 5, -9, 1 << 20} {
		ct, err := k.encryptWithBlinding(big.NewInt(m), waitReady(t, p))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := k.DecryptInt64(ct); err != nil || got != m {
			t.Errorf("pool round trip %d -> %d, %v", m, got, err)
		}
	}
}

func TestParallelForCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 100} {
		n := 57
		hits := make([]int32, n)
		parallelFor(n, workers, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d index %d hit %d times", workers, i, h)
			}
		}
	}
	// n = 0 must not panic.
	parallelFor(0, 4, func(int) { t.Fatal("called for empty range") })
}
