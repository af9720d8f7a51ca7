// Package paillier is a pplint fixture for the rerandomize analyzer's row
// exemption: the same Rows as in testdata/rerandomize, beside a Pack that
// forgot its blinding. Without a packer that blinds on every path the
// exemption is void, and both are reported.
package paillier

import "math/big"

// Ciphertext mirrors paillier.Ciphertext.
type Ciphertext struct{ c *big.Int }

// Key carries the modulus the homomorphic ops reduce against.
type Key struct{ n2 *big.Int }

// Rows derives rows and does not blind them.
func (k *Key) Rows(cts []*Ciphertext, rows [][]int64) ([]*Ciphertext, error) {
	return k.rows(cts, rows) // want "without re-randomization"
}

func (k *Key) rows(cts []*Ciphertext, rows [][]int64) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, len(rows))
	for o, row := range rows {
		acc := big.NewInt(1)
		for i, w := range row {
			t := new(big.Int).Exp(cts[i].c, big.NewInt(w), k.n2)
			acc.Mul(acc, t)
			acc.Mod(acc, k.n2)
		}
		out[o] = &Ciphertext{c: acc}
	}
	return out, nil
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
