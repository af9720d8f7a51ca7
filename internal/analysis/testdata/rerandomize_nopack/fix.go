// Package paillier is a pplint fixture for the rerandomize analyzer's row
// exemption: the same Dot as in testdata/rerandomize, beside a Pack that
// forgot its blinding. Without a packer that blinds on every path the
// exemption is void, and both are reported.
package paillier

import "math/big"

// Ciphertext mirrors paillier.Ciphertext.
type Ciphertext struct{ c *big.Int }

// Key carries the modulus the homomorphic ops reduce against.
type Key struct{ n2 *big.Int }

// Dot derives a row and does not blind it.
func (k *Key) Dot(row []int64, cts []*Ciphertext) *Ciphertext {
	acc := big.NewInt(1)
	for i, w := range row {
		t := new(big.Int).Exp(cts[i].c, big.NewInt(w), k.n2)
		acc.Mul(acc, t)
		acc.Mod(acc, k.n2)
	}
	return &Ciphertext{c: acc} // want "without re-randomization"
}

// Pack folds rows together but multiplies in no fresh factor.
func (k *Key) Pack(rows []*Ciphertext) *Ciphertext {
	acc := big.NewInt(1)
	for _, r := range rows {
		acc.Mul(acc, acc)
		acc.Mul(acc, r.c)
		acc.Mod(acc, k.n2)
	}
	return &Ciphertext{c: acc} // want "without re-randomization"
}
