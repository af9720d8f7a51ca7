package paillier

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"ppstream/internal/obs"
	"ppstream/internal/tensor"
)

// TestKeyHolderSamplerIsBijectionOntoNthResidues is the exact-distribution
// argument checked exhaustively at toy primes: as (y_p, y_q) ranges over
// Z*_p × Z*_q the sampler's core hits every element of
// {r^n mod n² : r ∈ Z*_n} exactly once, so uniform (y_p, y_q) gives the
// public sampler's distribution.
func TestKeyHolderSamplerIsBijectionOntoNthResidues(t *testing.T) {
	sk, err := newPrivateKey(big.NewInt(11), big.NewInt(17))
	if err != nil {
		t.Fatal(err)
	}
	residues := map[string]bool{}
	for r := int64(1); r < sk.N.Int64(); r++ {
		rb := big.NewInt(r)
		if new(big.Int).GCD(nil, nil, rb, sk.N).Cmp(one) != 0 {
			continue
		}
		residues[rb.Exp(rb, sk.N, sk.N2).String()] = true
	}
	if want := int((sk.P.Int64() - 1) * (sk.Q.Int64() - 1)); len(residues) != want {
		t.Fatalf("%d distinct n-th residues, want φ(n) = %d", len(residues), want)
	}
	hit := map[string]bool{}
	for yp := int64(1); yp < sk.P.Int64(); yp++ {
		for yq := int64(1); yq < sk.Q.Int64(); yq++ {
			x := sk.nthResidue(big.NewInt(yp), big.NewInt(yq)).String()
			if !residues[x] {
				t.Fatalf("(y_p, y_q) = (%d, %d) maps to %s, not an n-th residue", yp, yq, x)
			}
			if hit[x] {
				t.Fatalf("(y_p, y_q) = (%d, %d) maps to %s, already hit", yp, yq, x)
			}
			hit[x] = true
		}
	}
	if len(hit) != len(residues) {
		t.Fatalf("sampler hit %d of %d n-th residues", len(hit), len(residues))
	}
}

// TestKeyHolderBlindingProperties checks, at the benchmark's key sizes,
// that every draw is a unit of Z_{n²} in [1, n²) encrypting zero, and
// that key-holder ciphertexts at the edges of the message space decrypt
// correctly and evaluate through the linear kernel to the clear result.
func TestKeyHolderBlindingProperties(t *testing.T) {
	for _, bits := range []int{256, 512, 1024} {
		sk, err := GenerateKey(rand.Reader, bits)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			rn, err := sk.freshBlinding(nil)
			if err != nil {
				t.Fatal(err)
			}
			if rn.Sign() <= 0 || rn.Cmp(sk.N2) >= 0 {
				t.Fatalf("%d bits: draw outside [1, n²)", bits)
			}
			if new(big.Int).GCD(nil, nil, rn, sk.N2).Cmp(one) != 0 {
				t.Fatalf("%d bits: draw is not a unit of Z_{n²}", bits)
			}
			if m, err := sk.Decrypt(&Ciphertext{c: rn}); err != nil || m.Sign() != 0 {
				t.Fatalf("%d bits: draw decrypts to %v, %v; want 0", bits, m, err)
			}
		}
		edge := new(big.Int).Sub(sk.halfN, one)
		ms := []*big.Int{new(big.Int), big.NewInt(1), big.NewInt(-1), edge, new(big.Int).Neg(edge)}
		xs := make([]*Ciphertext, len(ms))
		for i, m := range ms {
			if xs[i], err = sk.Encrypt(nil, m); err != nil {
				t.Fatal(err)
			}
			if got, err := sk.Decrypt(xs[i]); err != nil || got.Cmp(m) != 0 {
				t.Fatalf("%d bits: key-holder encryption of %v decrypts to %v, %v", bits, m, got, err)
			}
		}
		// Rows over (0, 1, −1, e, −e): 3·1 − 2·(−1) + 7 = 12, e − e = 0,
		// and e alone — the largest message the kernel can carry.
		rows := []Row{{W: []int64{5, 3, -2, 0, 0}, Bias: big.NewInt(7)}, {W: []int64{0, 0, 0, 1, 1}}, {W: []int64{9, 0, 0, 1, 0}}}
		out, err := NewEvaluator(&sk.PublicKey, nil).Rows(xs, rows)
		if err != nil {
			t.Fatal(err)
		}
		for o, want := range []*big.Int{big.NewInt(12), new(big.Int), edge} {
			if got, err := sk.Decrypt(out[o]); err != nil || got.Cmp(want) != 0 {
				t.Fatalf("%d bits: row %d = %v, %v; want %v", bits, o, got, err, want)
			}
		}
	}
}

// TestEncodeEdges pins encode at the ends of the message space: ±(⌊n/2⌋−1)
// and everything shorter encode, ±⌊n/2⌋ and beyond are refused, a
// non-negative message comes back as given and a negative one as n + m —
// and neither AddPlain nor the kernel's bias writes through what encode
// handed them.
func TestEncodeEdges(t *testing.T) {
	for _, bits := range []int{256, 512} {
		sk, err := GenerateKey(rand.Reader, bits)
		if err != nil {
			t.Fatal(err)
		}
		pk := &sk.PublicKey
		edge := new(big.Int).Sub(sk.halfN, one)
		for _, m := range []*big.Int{new(big.Int), big.NewInt(1), big.NewInt(-1), edge, new(big.Int).Neg(edge),
			new(big.Int).Lsh(one, uint(bits-3)), new(big.Int).Neg(new(big.Int).Lsh(one, uint(bits-2)))} {
			if m.CmpAbs(sk.halfN) >= 0 {
				continue // 2^(bits−2) can reach ⌊n/2⌋ only when n is a power of two
			}
			before := new(big.Int).Set(m)
			enc, err := pk.encode(m)
			if err != nil {
				t.Fatalf("%d bits: encode(%v): %v", bits, m, err)
			}
			want := m
			if m.Sign() < 0 {
				want = new(big.Int).Add(pk.N, m)
			}
			if enc.Cmp(want) != 0 {
				t.Fatalf("%d bits: encode(%v) = %v, want %v", bits, m, enc, want)
			}
			if (enc == m) != (m.Sign() >= 0) {
				t.Fatalf("%d bits: encode(%v) copied a non-negative message or aliased a negative one", bits, m)
			}
			if got := sk.decode(enc); got.Cmp(m) != 0 {
				t.Fatalf("%d bits: decode(encode(%v)) = %v", bits, m, got)
			}
			zero, err := sk.Encrypt(nil, new(big.Int))
			if err != nil {
				t.Fatal(err)
			}
			sum, err := pk.AddPlain(zero, m)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := sk.Decrypt(sum); err != nil || got.Cmp(m) != 0 {
				t.Fatalf("%d bits: 0 + %v decrypts to %v, %v", bits, m, got, err)
			}
			// The bias over an encryption of zero: the row decrypts to it.
			out, err := NewEvaluator(pk, nil).Rows([]*Ciphertext{zero}, []Row{{W: []int64{1}, Bias: m}})
			if err != nil {
				t.Fatal(err)
			}
			if got, err := sk.Decrypt(out[0]); err != nil || got.Cmp(m) != 0 {
				t.Fatalf("%d bits: bias %v decrypts to %v, %v", bits, m, got, err)
			}
			if m.Cmp(before) != 0 {
				t.Fatalf("%d bits: message %v was overwritten with %v", bits, before, m)
			}
		}
		for _, m := range []*big.Int{sk.halfN, new(big.Int).Neg(sk.halfN), new(big.Int).Add(sk.halfN, one), pk.N, new(big.Int).Lsh(one, uint(bits))} {
			if _, err := pk.encode(m); err == nil {
				t.Fatalf("%d bits: encode accepted %v, magnitude ≥ ⌊n/2⌋", bits, m)
			}
			if _, err := pk.AddPlain(&Ciphertext{c: big.NewInt(1)}, m); err == nil {
				t.Fatalf("%d bits: AddPlain accepted %v", bits, m)
			}
		}
	}
}

// TestKeyHolderRandFailureSurfaces: a failing reader is the error of
// every key-holder encrypt path, metering nothing — never a fall-back to
// the public sampler or to other randomness.
func TestKeyHolderRandFailureSurfaces(t *testing.T) {
	k := key(t)
	dead := &flakyReader{under: rand.Reader}
	dead.failures.Store(1 << 30) // fail forever
	if _, err := k.Encrypt(dead, big.NewInt(1)); !errors.Is(err, errEntropy) {
		t.Errorf("Encrypt on a failing reader: %v", err)
	}
	var m obs.CostMeter
	if _, err := k.EncryptTensor(dead, tensor.New[int64](3), 1, &m); !errors.Is(err, errEntropy) {
		t.Errorf("EncryptTensor on a failing reader: %v", err)
	}
	if st := m.Snapshot(); !st.IsZero() {
		t.Errorf("failed EncryptTensor metered %+v", st)
	}
}

// TestPrivateKeyRejectsPrimeDividingPredecessor: gcd(n, (p−1)(q−1)) must
// be 1 for decryption and for the CRT sampler's distribution argument;
// GenerateKey cannot produce such a pair but deserialization can.
func TestPrivateKeyRejectsPrimeDividingPredecessor(t *testing.T) {
	if _, err := NewPrivateKeyFromPrimes(big.NewInt(23), big.NewInt(11)); err == nil {
		t.Error("accepted p = 23, q = 11 (q | p−1)")
	}
	if _, err := NewPrivateKeyFromPrimes(big.NewInt(11), big.NewInt(23)); err == nil {
		t.Error("accepted p = 11, q = 23 (p | q−1)")
	}
	if _, err := NewPrivateKeyFromPrimes(big.NewInt(11), big.NewInt(17)); err != nil {
		t.Errorf("rejected p = 11, q = 17: %v", err)
	}
}
