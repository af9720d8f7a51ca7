// Package paillier is a pplint fixture for the rerandomize analyzer: a
// minimal Paillier-shaped package whose exported functions derive
// ciphertexts homomorphically, with and without blinding the result
// before it is returned.
package paillier

import "math/big"

// Ciphertext mirrors paillier.Ciphertext.
type Ciphertext struct{ c *big.Int }

// Key carries the modulus state the homomorphic ops reduce against.
type Key struct {
	n  *big.Int
	n2 *big.Int
}

// freshBlinding is the fixture's stand-in for drawing r^n with
// cryptographic randomness.
func (k *Key) freshBlinding() *big.Int {
	return new(big.Int).Set(k.n)
}

// Rerandomize multiplies in a fresh blinding factor; it is the
// re-randomization operation itself and therefore exempt by name.
func (k *Key) Rerandomize(ct *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(ct.c, k.freshBlinding())
	c.Mod(c, k.n2)
	return &Ciphertext{c: c}
}

// Add is an Eq. 1 homomorphic primitive: derives without blinding by
// documented contract, exempt by name.
func (k *Key) Add(a, b *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(a.c, b.c)
	c.Mod(c, k.n2)
	return &Ciphertext{c: c}
}

// BadDot reproduces the PR 2 unblinded-row bug: the accumulated
// ciphertext inherits randomness only from its inputs and leaves the
// function without a fresh r^n factor.
func (k *Key) BadDot(row []int64, cts []*Ciphertext) *Ciphertext {
	acc := big.NewInt(1)
	for i, w := range row {
		t := new(big.Int).Exp(cts[i].c, big.NewInt(w), k.n2)
		acc.Mul(acc, t)
		acc.Mod(acc, k.n2)
	}
	return &Ciphertext{c: acc} // want "without re-randomization"
}

// GoodDot is the fixed form: a blinding factor is definitely multiplied
// in before every return.
func (k *Key) GoodDot(row []int64, cts []*Ciphertext) *Ciphertext {
	acc := big.NewInt(1)
	for i, w := range row {
		t := new(big.Int).Exp(cts[i].c, big.NewInt(w), k.n2)
		acc.Mul(acc, t)
		acc.Mod(acc, k.n2)
	}
	acc.Mul(acc, k.freshBlinding())
	acc.Mod(acc, k.n2)
	return &Ciphertext{c: acc}
}

// BadDotRef matches BadDot but is a *Ref differential-test reference
// implementation (documented as never leaving the model provider):
// exempt by suffix.
func (k *Key) BadDotRef(row []int64, cts []*Ciphertext) *Ciphertext {
	acc := big.NewInt(1)
	for i, w := range row {
		t := new(big.Int).Exp(cts[i].c, big.NewInt(w), k.n2)
		acc.Mul(acc, t)
		acc.Mod(acc, k.n2)
	}
	return &Ciphertext{c: acc}
}

// BranchDot blinds the main path but leaks an unblinded ciphertext on
// the single-element early return.
func (k *Key) BranchDot(cts []*Ciphertext) *Ciphertext {
	if len(cts) == 1 {
		return k.scale(cts[0]) // want "without re-randomization"
	}
	acc := big.NewInt(1)
	for _, ct := range cts {
		acc.Mul(acc, ct.c)
		acc.Mod(acc, k.n2)
	}
	acc.Mul(acc, k.freshBlinding())
	acc.Mod(acc, k.n2)
	return &Ciphertext{c: acc}
}

// scale is an unexported homomorphic helper: not reported itself (only
// exported egress points are), but it does not blind, so returning its
// result directly is a violation upstream.
func (k *Key) scale(ct *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(ct.c, ct.c)
	c.Mod(c, k.n2)
	return &Ciphertext{c: c}
}

// Rescale derives and then routes the result through Rerandomize: the
// assignment taints out as blinded, so the return is clean.
func (k *Key) Rescale(ct *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(ct.c, ct.c)
	c.Mod(c, k.n2)
	out := k.Rerandomize(&Ciphertext{c: c})
	return out
}

// EncryptEach accumulates blinded ciphertexts into a slice: taint flows
// through append, so the returned slice is clean.
func (k *Key) EncryptEach(vals []*Ciphertext) []*Ciphertext {
	var out []*Ciphertext
	for _, v := range vals {
		ct := k.Rerandomize(v)
		out = append(out, ct)
	}
	return out
}

// BadBatch accumulates unblinded derived ciphertexts: the slice stays
// untainted and the return is flagged.
func (k *Key) BadBatch(vals []*Ciphertext) []*Ciphertext {
	var out []*Ciphertext
	for _, v := range vals {
		out = append(out, k.scale(v))
	}
	return out // want "without re-randomization"
}

// NilOnEmpty returns nil on the guard path (nil is never a leak) and a
// blinded ciphertext otherwise.
func (k *Key) NilOnEmpty(cts []*Ciphertext) *Ciphertext {
	if len(cts) == 0 {
		return nil
	}
	acc := new(big.Int).Mul(cts[0].c, cts[0].c)
	acc.Mod(acc, k.n2)
	return k.Rerandomize(&Ciphertext{c: acc})
}

// KeyHolder mirrors paillier.PrivateKey: it embeds the public key and
// has a blinding source of its own (the CRT sampler), which shadows the
// public one.
type KeyHolder struct {
	Key
	p2, q2 *big.Int
}

// freshBlinding is the fixture's stand-in for the key holder's sampler.
func (h *KeyHolder) freshBlinding() *big.Int {
	return new(big.Int).Mul(h.p2, h.q2)
}

// draw is the fixture's stand-in for the metered draw every encrypt path
// takes its factor through.
func draw(h *KeyHolder) *big.Int { return h.freshBlinding() }

// SealGood is a key-holder encryption: the embedding (1 + m·n) is
// multiplied by a factor drawn from the key holder's source.
func (h *KeyHolder) SealGood(m *big.Int) *Ciphertext {
	c := new(big.Int).Mul(m, h.n)
	c.Add(c, big.NewInt(1))
	c.Mul(c, draw(h))
	c.Mod(c, h.n2)
	return &Ciphertext{c: c}
}

// SealBad skips the source and returns the deterministic embedding: an
// encrypt that drops its blinding is flagged whichever key it runs under.
func (h *KeyHolder) SealBad(m *big.Int) *Ciphertext {
	c := new(big.Int).Mul(m, h.n)
	c.Add(c, big.NewInt(1))
	c.Mod(c, h.n2)
	return &Ciphertext{c: c} // want "without re-randomization"
}

// Rows is the kernel's row evaluator: it derives and does not blind, like
// BadDot, and is let through only because this package has a Pack that
// blinds on every path — the rows' one way out (see SealReplyGood). Like
// the real one it hands on the results of an unexported helper whole; a
// multi-valued call in a return is still a ciphertext leaving.
func (k *Key) Rows(cts []*Ciphertext, rows [][]int64) ([]*Ciphertext, error) {
	return k.rows(cts, rows)
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

// RowsUnder is Rows by another name: the exemption is Rows' alone.
func (k *Key) RowsUnder(cts []*Ciphertext, rows [][]int64) ([]*Ciphertext, error) {
	return k.rows(cts, rows) // want "without re-randomization"
}

// Pack folds rows into one ciphertext and blinds it: the packer whose
// blinding earns Rows its exemption.
func (k *Key) Pack(rows []*Ciphertext) []*Ciphertext {
	acc := big.NewInt(1)
	for _, r := range rows {
		acc.Mul(acc, acc)
		acc.Mul(acc, r.c)
		acc.Mod(acc, k.n2)
	}
	acc.Mul(acc, k.freshBlinding())
	acc.Mod(acc, k.n2)
	return []*Ciphertext{{c: acc}}
}

// Envelope mirrors protocol.Envelope: what crosses to the other party.
type Envelope struct {
	Req uint64
	CT  []*Ciphertext
}

// SealReplyGood builds a reply the only allowed way: its ciphertexts
// come out of Pack, by literal and by assignment.
func (k *Key) SealReplyGood(rows []*Ciphertext) (*Envelope, *Envelope) {
	packed := k.Pack(rows)
	lit := &Envelope{Req: 1, CT: packed}
	set := &Envelope{Req: 2}
	set.CT = k.Pack(rows)
	return lit, set
}

// SealReplyBad puts kernel rows into an envelope directly: each escapes
// with only its inputs' randomness, the leak Pack exists to close.
func (k *Key) SealReplyBad(row []int64, cts []*Ciphertext) (*Envelope, *Envelope) {
	rows, _ := k.Rows(cts, [][]int64{row})
	lit := &Envelope{Req: 1, CT: rows} // want "Envelope.CT filled outside Pack"
	set := &Envelope{Req: 2}
	set.CT, set.Req = rows, 3 // want "Envelope.CT filled outside Pack"
	*set = Envelope{4, rows}  // want "Envelope.CT filled outside Pack"
	return lit, set
}
