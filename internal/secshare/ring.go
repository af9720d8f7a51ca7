package secshare

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
)

// This file holds the integer-exact ring ops: values are the SAME
// scaled integers the quantized network (internal/qnn) computes over —
// x·F^exp with int32 weights at scale F — shared additively in Z_{2^64}
// and multiplied with Beaver triples WITHOUT truncation. Because ring
// arithmetic mod 2^64 agrees with integer arithmetic whenever
// |value| < 2^63, a layer executed here reconstructs bit-identically to
// qnn's big-integer ApplyPlain reference (the protocol's scale guard keeps
// magnitudes in range). This is what makes the ss-gc backend's
// differential tests exact rather than approximate; the EzPC-style
// baseline brings its values back to scale after each layer with
// Truncate.

// RingOfBig reduces a big integer into Z_{2^64} (two's complement for
// negatives) — how quantized biases, at their output scale, enter it.
func RingOfBig(v *big.Int) uint64 {
	// big.Int bitwise ops act on the infinite two's-complement form, so
	// masking to 64 bits IS reduction mod 2^64, negatives included.
	var m big.Int
	return m.And(v, ringMask).Uint64()
}

var ringMask = new(big.Int).SetUint64(^uint64(0))

// SignedOfRing interprets a reconstructed ring value as the signed
// integer it represents (exact while |value| < 2^63).
func SignedOfRing(v uint64) int64 { return int64(v) }

// SplitRandom shares a ring value with randomness drawn from r — the
// data provider's share split, which must use crypto/rand so neither
// share alone reveals anything about the value.
func SplitRandom(r io.Reader, v uint64) (Shares, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return Shares{}, fmt.Errorf("secshare: share randomness: %w", err)
	}
	s0 := binary.BigEndian.Uint64(b[:])
	return Shares{S: [2]uint64{s0, v - s0}}, nil
}

// DotPrivateInt computes Σ_j w_j·x_j + bias over the ring with party
// 0's private int32 weights and big-integer bias (reduced into the
// ring), skipping zero weights exactly like the plaintext reference.
// No truncation is applied: with the weights at scale F, the result is at
// one power of F above the inputs, the scale the bias must be held at.
func (e *Engine) DotPrivateInt(w []int32, x []Shares, bias *big.Int) (Shares, error) {
	if len(w) != len(x) {
		return Shares{}, fmt.Errorf("secshare: int dot length mismatch %d vs %d", len(w), len(x))
	}
	var acc Shares
	if bias != nil {
		acc.S[0] = RingOfBig(bias)
	}
	for j, wj := range w {
		if wj == 0 {
			continue
		}
		p := e.mulRaw(Shares{S: [2]uint64{uint64(int64(wj)), 0}}, x[j])
		acc.S[0] += p.S[0]
		acc.S[1] += p.S[1]
	}
	return acc, nil
}
