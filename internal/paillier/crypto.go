package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Ciphertext is a Paillier ciphertext: an element of Z_{n²}. Ciphertexts
// are immutable; homomorphic operations return new values.
type Ciphertext struct {
	c *big.Int
}

// Value returns a copy of the ciphertext's ring element.
func (ct *Ciphertext) Value() *big.Int { return new(big.Int).Set(ct.c) }

// ByteLen returns the length of the ring element's big-endian form: at
// most ⌈bitlen(n²)/8⌉, and the width FillBytes needs.
func (ct *Ciphertext) ByteLen() int { return (ct.c.BitLen() + 7) / 8 }

// FillBytes writes the ring element into b as exactly len(b) big-endian
// bytes, zero-extended; len(b) must be at least ByteLen. With ParseCiphertext
// it is the fixed-width pair the wire codec moves ciphertexts through: one
// copy out of the big.Int, one copy into a new one.
func (ct *Ciphertext) FillBytes(b []byte) { ct.c.FillBytes(b) }

// ParseCiphertext reads a big-endian ring element of any width. It knows
// no key, so the result is unvalidated: pass it to PublicKey.CheckCiphertext
// before computing on it.
func ParseCiphertext(b []byte) *Ciphertext { return &Ciphertext{c: new(big.Int).SetBytes(b)} }

// CheckCiphertext reports an error unless ct is an element of Z_{n²}.
func (pk *PublicKey) CheckCiphertext(ct *Ciphertext) error {
	if ct == nil || ct.c == nil {
		return errors.New("paillier: nil ciphertext")
	}
	if ct.c.Sign() < 0 || ct.c.Cmp(pk.N2) >= 0 {
		return errors.New("paillier: ciphertext out of range [0, n²)")
	}
	return nil
}

// Encrypt encrypts a signed big integer message m, |m| < n/2, producing
// c = (1 + m·n)·r^n mod n² for a fresh random unit r.
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	rn, err := pk.freshBlinding(random)
	if err != nil {
		return nil, err
	}
	return pk.encryptWithBlinding(m, rn)
}

func (pk *PublicKey) encryptWithBlinding(m, rn *big.Int) (*Ciphertext, error) {
	enc, err := pk.encode(m)
	if err != nil {
		return nil, err
	}
	// enc < n, so 1 + enc·n ≤ 1 + (n−1)·n < n²: nothing to reduce before
	// the blinding goes in.
	c := new(big.Int).Mul(enc, pk.N)
	c.Add(c, one)
	c.Mul(c, rn)
	c.Mod(c, pk.N2)
	return &Ciphertext{c: c}, nil
}

// freshBlinding samples r uniform in Z_n* and returns r^n mod n² — the
// only way to a blinding factor for a party that knows n alone (the
// model provider): one n-bit exponentiation modulo the 2n-bit n².
func (pk *PublicKey) freshBlinding(random io.Reader) (*big.Int, error) {
	if random == nil {
		random = rand.Reader
	}
	for {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, fmt.Errorf("paillier: sampling blinding: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) != 0 {
			continue // astronomically unlikely: r shares a factor with n
		}
		return r.Exp(r, pk.N, pk.N2), nil
	}
}

// freshBlinding is the key holder's blinding source: it samples
// y_p ∈ [1, p−1] and y_q ∈ [1, q−1] and returns the element of Z*_{n²}
// that is y_p^p modulo p² and y_q^q modulo q² — two half-size
// exponentiations against PublicKey.freshBlinding's one full-size one.
//
// The result is distributed exactly as r^n mod n² for r uniform in Z*_n.
// Z*_{p²} is cyclic of order p(p−1) and gcd(q, p(p−1)) = 1 (newPrivateKey
// rejects q | p−1), so x ↦ x^n = (x^q)^p maps it onto its unique subgroup
// of order p−1, and r^n mod p² is uniform there when r mod p is uniform.
// y ↦ y^p mod p² depends only on y mod p and is injective on Z*_p
// (y^p ≡ y mod p), hence a bijection from Z*_p onto the same subgroup;
// likewise modulo q², independently, and CRT glues the two halves.
//
// The exponents p and q are secret and math/big is not constant-time —
// the exposure Decrypt already has (honest-but-curious model only).
func (sk *PrivateKey) freshBlinding(random io.Reader) (*big.Int, error) {
	if random == nil {
		random = rand.Reader
	}
	yp, err := rand.Int(random, sk.pMinus1)
	if err != nil {
		return nil, fmt.Errorf("paillier: sampling blinding: %w", err)
	}
	yq, err := rand.Int(random, sk.qMinus1)
	if err != nil {
		return nil, fmt.Errorf("paillier: sampling blinding: %w", err)
	}
	return sk.nthResidue(yp.Add(yp, one), yq.Add(yq, one)), nil
}

// nthResidue is the sampler's deterministic core: for yp ∈ [1, p−1] and
// yq ∈ [1, q−1] it returns the x ∈ Z*_{n²} with x ≡ yp^p (mod p²) and
// x ≡ yq^q (mod q²). It overwrites both arguments, and the one n²-sized
// scratch value it allocates is the result, so a draw allocates about
// what the single full-size exponentiation does.
func (sk *PrivateKey) nthResidue(yp, yq *big.Int) *big.Int {
	yp.Exp(yp, sk.P, sk.p2)
	yq.Exp(yq, sk.Q, sk.q2)
	// CRT: x = yq + q²·((yp − yq)·(q²)⁻¹ mod p²) < n².
	yp.Sub(yp, yq)
	x := new(big.Int).Mul(yp, sk.q2InvP2)
	yp.Mod(x, sk.p2)
	x.Mul(yp, sk.q2)
	return x.Add(x, yq)
}

// Encrypt is encryption by the key holder: the same ciphertext
// distribution as PublicKey.Encrypt, with the blinding factor drawn from
// the CRT sampler. It shadows the embedded public method so a party
// holding sk never pays the public-key price.
func (sk *PrivateKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	rn, err := sk.freshBlinding(random)
	if err != nil {
		return nil, err
	}
	return sk.encryptWithBlinding(m, rn)
}

// EncryptInt64 encrypts a signed 64-bit message as the key holder.
func (sk *PrivateKey) EncryptInt64(random io.Reader, m int64) (*Ciphertext, error) {
	return sk.Encrypt(random, big.NewInt(m))
}

// encode maps a signed message into Z_n: non-negative messages map to
// themselves — returned as given, not copied, so callers only read the
// result — and negative messages m to n + m. The message magnitude must be
// below ⌊n/2⌋ so decoding is unambiguous; anything two bits shorter than n
// is, and only longer messages pay for the exact comparison.
func (pk *PublicKey) encode(m *big.Int) (*big.Int, error) {
	if m.BitLen() >= pk.N.BitLen()-1 {
		if halfN := new(big.Int).Rsh(pk.N, 1); m.CmpAbs(halfN) >= 0 {
			return nil, fmt.Errorf("paillier: message magnitude %d bits exceeds n/2 (%d-bit key)", m.BitLen(), pk.N.BitLen())
		}
	}
	if m.Sign() >= 0 {
		return m, nil
	}
	return new(big.Int).Add(pk.N, m), nil
}

// decode maps a Z_n residue back to a signed message.
func (sk *PrivateKey) decode(m *big.Int) *big.Int {
	if m.Cmp(sk.halfN) > 0 {
		return new(big.Int).Sub(m, sk.N)
	}
	return new(big.Int).Set(m)
}

// Decrypt recovers the signed message from a ciphertext using CRT-
// accelerated decryption: work modulo p² and q² separately and recombine.
func (sk *PrivateKey) Decrypt(ct *Ciphertext) (*big.Int, error) {
	if err := sk.CheckCiphertext(ct); err != nil {
		return nil, err
	}
	// mp = L_p(c^{p−1} mod p²)·hp mod p
	mp := new(big.Int).Exp(ct.c, sk.pMinus1, sk.p2)
	mp = lFunc(mp, sk.P)
	mp.Mul(mp, sk.hp)
	mp.Mod(mp, sk.P)
	// mq = L_q(c^{q−1} mod q²)·hq mod q
	mq := new(big.Int).Exp(ct.c, sk.qMinus1, sk.q2)
	mq = lFunc(mq, sk.Q)
	mq.Mul(mq, sk.hq)
	mq.Mod(mq, sk.Q)
	// CRT: m = mq + q·((mp − mq)·q⁻¹ mod p), at most (q−1) + q(p−1) = n−1,
	// so m is already reduced mod n.
	m := new(big.Int).Sub(mp, mq)
	m.Mul(m, sk.qInvP)
	m.Mod(m, sk.P)
	m.Mul(m, sk.Q)
	m.Add(m, mq)
	return sk.decode(m), nil
}

// DecryptInt64 decrypts and narrows to int64, failing if the plaintext
// does not fit.
func (sk *PrivateKey) DecryptInt64(ct *Ciphertext) (int64, error) {
	m, err := sk.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	if !m.IsInt64() {
		return 0, fmt.Errorf("paillier: plaintext %d bits overflows int64", m.BitLen())
	}
	return m.Int64(), nil
}

// EncryptInt64 encrypts a signed 64-bit message.
func (pk *PublicKey) EncryptInt64(random io.Reader, m int64) (*Ciphertext, error) {
	return pk.Encrypt(random, big.NewInt(m))
}

// Add homomorphically adds two ciphertexts: E(m1)·E(m2) mod n² (Eq. 1).
func (pk *PublicKey) Add(a, b *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(a.c, b.c)
	c.Mod(c, pk.N2)
	return &Ciphertext{c: c}
}

// AddPlain homomorphically adds a plaintext constant to a ciphertext by
// multiplying with the deterministic encryption (1 + k·n), which needs no
// blinding because the sum's blinding carries over.
func (pk *PublicKey) AddPlain(a *Ciphertext, k *big.Int) (*Ciphertext, error) {
	enc, err := pk.encode(k)
	if err != nil {
		return nil, err
	}
	// As in encryptWithBlinding, 1 + enc·n is already below n².
	c := new(big.Int).Mul(enc, pk.N)
	c.Add(c, one)
	c.Mul(c, a.c)
	c.Mod(c, pk.N2)
	return &Ciphertext{c: c}, nil
}

// MulScalar homomorphically multiplies the plaintext by a signed scalar:
// E(m)^w mod n² (Eq. 2). Negative scalars use the modular inverse of the
// ciphertext, which exists because ciphertexts are units of Z_{n²}.
func (pk *PublicKey) MulScalar(a *Ciphertext, w *big.Int) (*Ciphertext, error) {
	if w.Sign() >= 0 {
		return &Ciphertext{c: new(big.Int).Exp(a.c, w, pk.N2)}, nil
	}
	inv := new(big.Int).ModInverse(a.c, pk.N2)
	if inv == nil {
		return nil, errors.New("paillier: ciphertext not invertible (corrupted value)")
	}
	absW := new(big.Int).Neg(w)
	return &Ciphertext{c: inv.Exp(inv, absW, pk.N2)}, nil
}

// MulScalarInt64 is MulScalar for int64 weights, the common case after
// parameter scaling.
func (pk *PublicKey) MulScalarInt64(a *Ciphertext, w int64) (*Ciphertext, error) {
	return pk.MulScalar(a, big.NewInt(w))
}
