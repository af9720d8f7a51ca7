package paillier

// Reply packing (DESIGN §3c″). The model provider's rows leave the kernel
// unblinded, one plaintext each; Pack folds a run of S of them into ONE
// ciphertext whose plaintext carries the S values in disjoint W-bit
// slots, and blinds that ciphertext once. The data provider then pays one
// decryption per S values and splits the plaintext (Unpack). W comes from
// the stage's chained output bound (qnn.Walk), so a slot cannot overflow
// into its neighbour: slot j holds v_j + 2^(W−1) ∈ (0, 2^W) for every
// |v_j| < 2^(W−1). Only this direction can be packed — the kernel's dot
// product needs its inputs one per ciphertext.

import (
	"fmt"
	"math/big"
	"sync"

	"ppstream/internal/tensor"
)

// Slots returns how many slotBits-wide slots one plaintext holds:
// ⌊(bitlen(n) − 2)/slotBits⌋, which keeps a full plaintext below
// 2^(bitlen(n)−2) ≤ n/2 and so on the non-negative side of the signed
// decoding. Zero means the key cannot hold even one such slot.
func (pk *PublicKey) Slots(slotBits int) int {
	if slotBits < 1 {
		return 0
	}
	return (pk.N.BitLen() - 2) / slotBits
}

// PackedLen returns how many ciphertexts count values take at slotBits
// per value, ⌈count/Slots⌉ — 0 when there is nothing to pack or no slot
// fits, which no packed reply may be.
func (pk *PublicKey) PackedLen(count, slotBits int) int {
	s := pk.Slots(slotBits)
	if s < 1 || count < 1 {
		return 0
	}
	return (count-1)/s + 1
}

// Pack turns the rows of one linear round into the reply that leaves the
// model provider: group g of S = Slots(slotBits) rows becomes
//
//	Π_j rows[gS+j]^(2^(j·W)) · (1 + offset·n) · r^n  mod n²,
//
// evaluated by Horner's rule, with offset = Σ_j 2^(j·W+W−1) and a fresh
// r^n per group — the only re-randomization a row gets, and the reason
// Evaluator.Rows may leave rows unblinded. The last group may be
// partial. Every row plaintext must lie strictly inside ±2^(slotBits−1),
// and every row must be an element of [0, n²): one that is not fails the
// call before any arithmetic, because modMul's operands must be reduced.
// The 2^W-th power is W squarings through modMul, counted like every
// other modular multiplication.
func (ev *Evaluator) Pack(rows []*Ciphertext, slotBits, workers int) (*CipherTensor, error) {
	s := ev.pk.Slots(slotBits)
	if s < 1 || len(rows) == 0 {
		return nil, fmt.Errorf("paillier: cannot pack %d rows into %d-bit slots under a %d-bit key", len(rows), slotBits, ev.pk.Bits())
	}
	for i, row := range rows {
		if err := ev.pk.CheckCiphertext(row); err != nil {
			return nil, fmt.Errorf("paillier: packing row %d: %w", i, err)
		}
	}
	out := tensor.New[*Ciphertext](ev.pk.PackedLen(len(rows), slotBits))
	od := out.Data()
	var mu sync.Mutex
	var firstErr error
	parallelFor(len(od), workers, func(g int) {
		ct, err := ev.packGroup(rows[g*s:min(len(rows), (g+1)*s)], slotBits)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("paillier: packing rows from %d: %w", g*s, err)
			}
			mu.Unlock()
			return
		}
		od[g] = ct
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// packGroup folds one group of at most Slots rows, first row in the
// lowest slot, and blinds the result.
func (ev *Evaluator) packGroup(group []*Ciphertext, slotBits int) (*Ciphertext, error) {
	mm := ev.modMul()
	acc, offset := new(big.Int), new(big.Int)
	for j := len(group) - 1; j >= 0; j-- {
		if j == len(group)-1 {
			acc.Set(group[j].c)
		} else {
			for s := 0; s < slotBits; s++ {
				mm.mul(acc, acc, acc)
			}
			mm.mul(acc, acc, group[j].c)
		}
		offset.SetBit(offset, j*slotBits+slotBits-1, 1)
	}
	rn, st, err := ev.blinding()
	if err != nil {
		return nil, err
	}
	// offset < 2^(S·W) ≤ n/2, so 1 + offset·n is already reduced.
	offset.Mul(offset, ev.pk.N)
	mm.mul(acc, acc, offset.Add(offset, one))
	mm.mul(acc, acc, rn)
	st.MulMods += mm.n
	ev.cost.Add(st)
	return &Ciphertext{c: acc}, nil
}

// Unpack decrypts a reply built by Pack and splits it back into count
// signed values: one CRT decryption per packed ciphertext, then slot j of
// group g is bits [jW, (j+1)W) of its plaintext minus 2^(W−1). It rejects
// a reply whose length is not ⌈count/S⌉ and a plaintext that is negative
// or reaches past its group's slots — neither can come from Pack.
func (sk *PrivateKey) Unpack(packed *CipherTensor, slotBits, count, workers int) (*tensor.Tensor[*big.Int], error) {
	s := sk.Slots(slotBits)
	if packed.Size() != sk.PackedLen(count, slotBits) {
		return nil, fmt.Errorf("paillier: %d packed ciphertexts for %d values in %d-bit slots under a %d-bit key", packed.Size(), count, slotBits, sk.Bits())
	}
	plain, err := DecryptTensorBig(sk, packed, workers)
	if err != nil {
		return nil, err
	}
	out := tensor.New[*big.Int](count)
	half := new(big.Int).Lsh(one, uint(slotBits-1))
	mask := new(big.Int).Lsh(one, uint(slotBits))
	mask.Sub(mask, one)
	for g, m := range plain.Data() {
		k := min(s, count-g*s)
		if m.Sign() < 0 || m.BitLen() > k*slotBits {
			return nil, fmt.Errorf("paillier: packed plaintext %d does not fit its %d slots of %d bits", g, k, slotBits)
		}
		for j := 0; j < k; j++ {
			v := new(big.Int).Rsh(m, uint(j*slotBits))
			v.And(v, mask)
			out.SetFlat(g*s+j, v.Sub(v, half))
		}
	}
	return out, nil
}
