// Package paillier implements Paillier's additively homomorphic public-key
// cryptosystem (EUROCRYPT 1999), the privacy-preserving primitive PP-Stream
// uses for linear neural-network operations (paper Section III-B).
//
// Supported homomorphic operations on ciphertexts:
//
//   - Add:       D(E(m1) · E(m2) mod n²)  = m1 + m2   (paper Eq. 1)
//   - MulScalar: D(E(m)^w mod n²)         = w · m      (paper Eq. 2)
//
// so a neural-network linear operation Σ_i w_i·m_i + b evaluates as
// Π_i E(m_i)^{w_i} · E(b) mod n² (paper Eq. 3).
//
// The implementation uses the standard g = n+1 variant, which makes
// encryption a single modular exponentiation, and CRT-accelerated
// decryption. Messages are signed integers encoded into Z_n with the upper
// half of the ring representing negative values.
//
// The paper's prototype uses GMP with 2048-bit keys; this package is pure
// Go (math/big) with the key size configurable. Tests use small keys for
// speed; the benchmark harness sweeps key sizes exactly as the paper's
// Figure 1 does.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// MinKeyBits is the smallest key size GenerateKey accepts. Keys this small
// are for tests and benchmarks only; production use should follow the
// paper and NIST SP 800-57 guidance (2048 bits).
const MinKeyBits = 128

// RecommendedKeyBits is the key size the paper's prototype uses.
const RecommendedKeyBits = 2048

var (
	one = big.NewInt(1)
)

// PublicKey holds the Paillier public parameters. With the g = n+1
// variant, n alone determines the key.
type PublicKey struct {
	N  *big.Int // modulus n = p·q
	N2 *big.Int // n²
}

// PrivateKey holds the factorization of n and the CRT precomputation used
// for fast decryption and for the key holder's blinding sampler.
type PrivateKey struct {
	PublicKey
	P, Q *big.Int // prime factors of n

	p2, q2  *big.Int // p², q²
	pMinus1 *big.Int // p−1
	qMinus1 *big.Int // q−1
	hp, hq  *big.Int // CRT decryption constants
	qInvP   *big.Int // q⁻¹ mod p
	q2InvP2 *big.Int // (q²)⁻¹ mod p², CRT coefficient lifting (mod p², mod q²) to mod n²
	halfN   *big.Int // ⌊n/2⌋, signed-decode threshold
}

// Bits returns the size of the modulus in bits.
func (pk *PublicKey) Bits() int { return pk.N.BitLen() }

// Validate reports an error if the public key is structurally unusable.
func (pk *PublicKey) Validate() error {
	if pk == nil || pk.N == nil || pk.N2 == nil {
		return errors.New("paillier: nil public key component")
	}
	if pk.N.Sign() <= 0 || pk.N.BitLen() < MinKeyBits {
		return fmt.Errorf("paillier: modulus too small (%d bits, need ≥ %d)", pk.N.BitLen(), MinKeyBits)
	}
	n2 := new(big.Int).Mul(pk.N, pk.N)
	if n2.Cmp(pk.N2) != 0 {
		return errors.New("paillier: N² does not match N")
	}
	return nil
}

// GenerateKey creates a fresh key pair with an n-bit modulus read from
// random (use crypto/rand.Reader). The two primes are bits/2 each.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if random == nil {
		random = rand.Reader
	}
	if bits < MinKeyBits {
		return nil, fmt.Errorf("paillier: key size %d below minimum %d", bits, MinKeyBits)
	}
	if bits%2 != 0 {
		return nil, fmt.Errorf("paillier: key size must be even, got %d", bits)
	}
	for {
		p, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating p: %w", err)
		}
		q, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		// With p ≠ q both prime and the same bit length newPrivateKey's
		// gcd(n, (p−1)(q−1)) = 1 guard cannot fire.
		return newPrivateKey(p, q)
	}
}

// NewPrivateKeyFromPrimes reconstructs a private key from its prime
// factors, e.g. after deserialization.
func NewPrivateKeyFromPrimes(p, q *big.Int) (*PrivateKey, error) {
	if p == nil || q == nil || p.Sign() <= 0 || q.Sign() <= 0 {
		return nil, errors.New("paillier: invalid primes")
	}
	if p.Cmp(q) == 0 {
		return nil, errors.New("paillier: p and q must differ")
	}
	if !p.ProbablyPrime(20) || !q.ProbablyPrime(20) {
		return nil, errors.New("paillier: factors fail primality test")
	}
	return newPrivateKey(p, q)
}

// newPrivateKey derives every precomputed constant from two distinct
// primes. It rejects pairs with gcd(n, (p−1)(q−1)) ≠ 1 — q | p−1 or
// p | q−1 — for which x ↦ x^n is not a bijection on the n-th residues:
// decryption is then ambiguous and the key holder's blinding sampler
// (PrivateKey.freshBlinding) would no longer match r^n mod n².
func newPrivateKey(p, q *big.Int) (*PrivateKey, error) {
	n := new(big.Int).Mul(p, q)
	phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
	if new(big.Int).GCD(nil, nil, n, phi).Cmp(one) != 0 {
		return nil, errors.New("paillier: gcd(n, (p−1)(q−1)) ≠ 1 (one prime divides the other's predecessor)")
	}
	n2 := new(big.Int).Mul(n, n)
	key := &PrivateKey{
		PublicKey: PublicKey{N: n, N2: n2},
		P:         new(big.Int).Set(p),
		Q:         new(big.Int).Set(q),
		p2:        new(big.Int).Mul(p, p),
		q2:        new(big.Int).Mul(q, q),
		pMinus1:   new(big.Int).Sub(p, one),
		qMinus1:   new(big.Int).Sub(q, one),
		halfN:     new(big.Int).Rsh(n, 1),
	}
	// hp = L_p(g^{p−1} mod p²)⁻¹ mod p with g = n+1.
	g := new(big.Int).Add(n, one)
	key.hp = new(big.Int)
	key.hq = new(big.Int)
	lp := lFunc(new(big.Int).Exp(g, key.pMinus1, key.p2), p)
	if key.hp.ModInverse(lp, p) == nil {
		return nil, errors.New("paillier: hp not invertible (bad primes)")
	}
	lq := lFunc(new(big.Int).Exp(g, key.qMinus1, key.q2), q)
	if key.hq.ModInverse(lq, q) == nil {
		return nil, errors.New("paillier: hq not invertible (bad primes)")
	}
	key.qInvP = new(big.Int)
	if key.qInvP.ModInverse(q, p) == nil {
		return nil, errors.New("paillier: q not invertible mod p (bad primes)")
	}
	// q is invertible mod p (checked above), hence q² is mod p².
	key.q2InvP2 = new(big.Int).ModInverse(key.q2, key.p2)
	return key, nil
}

// lFunc computes L(u) = (u − 1) / d, Paillier's L function with divisor d.
func lFunc(u, d *big.Int) *big.Int {
	t := new(big.Int).Sub(u, one)
	return t.Div(t, d)
}
