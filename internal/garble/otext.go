package garble

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// This file implements semi-honest IKNP oblivious-transfer extension:
// a small number (128) of base OTs — run over the Paillier OT in this
// package — extend to an arbitrary number m of label transfers using
// only symmetric operations. Real garbled-circuit deployments (including
// EzPC, the paper's measured baseline) rely on OT extension; without it
// the per-element ReLU conversions would be dominated by public-key
// operations and the baseline comparison would be meaningless.

// BaseOTs is the extension's security parameter: the base OTs one
// NewOTExtension consumes, whatever the number of transfers it serves.
const BaseOTs = 128

// prg expands a seed into nBytes pseudo-random bytes via SHA-256 in
// counter mode. Semi-honest setting; a production system would use AES.
func prg(seed Label, nBytes int) []byte {
	out := make([]byte, 0, nBytes+sha256.Size)
	var ctr [8]byte
	for len(out) < nBytes {
		binary.LittleEndian.PutUint64(ctr[:], uint64(len(out)))
		h := sha256.New()
		h.Write(seed[:])
		h.Write(ctr[:])
		out = h.Sum(out)
	}
	return out[:nBytes]
}

// hashIdx is the extension's correlation-robust hash H(j, q).
func hashIdx(j int, q []byte) Label {
	h := sha256.New()
	var jb [8]byte
	binary.LittleEndian.PutUint64(jb[:], uint64(j))
	h.Write(jb[:])
	h.Write(q)
	var out Label
	copy(out[:], h.Sum(nil))
	return out
}

func getBit(bs []byte, i int) bool { return bs[i/8]>>(uint(i)%8)&1 == 1 }

func setBit(bs []byte, i int, v bool) {
	if v {
		bs[i/8] |= 1 << (uint(i) % 8)
	}
}

// ExtSender is the extension sender: it can transfer any of its m label
// pairs with symmetric crypto only.
type ExtSender struct {
	m    int
	s    []bool   // k secret choice bits
	cols [][]byte // k columns of m bits each: Q
}

// ExtReceiver is the extension receiver with its chosen labels' keys.
type ExtReceiver struct {
	m      int
	choice []bool
	cols   [][]byte // k columns of m bits each: T
}

// NewOTExtension runs the complete IKNP setup for m transfers with the
// receiver's choice bits fixed up front. The base OTs run over the
// provided Paillier OT context with the roles reversed (the extension
// sender acts as base-OT receiver), BaseOTs of them. It returns both
// endpoint states.
func NewOTExtension(ot *OT, m int, choice []bool) (*ExtSender, *ExtReceiver, error) {
	if m <= 0 {
		return nil, nil, fmt.Errorf("garble: extension needs m > 0, got %d", m)
	}
	if len(choice) != m {
		return nil, nil, fmt.Errorf("garble: %d choice bits for m=%d", len(choice), m)
	}
	nBytes := (m + 7) / 8
	// Receiver-side secrets: k seed pairs.
	type seedPair struct{ k0, k1 Label }
	seeds := make([]seedPair, BaseOTs)
	for i := range seeds {
		if _, err := rand.Read(seeds[i].k0[:]); err != nil {
			return nil, nil, err
		}
		if _, err := rand.Read(seeds[i].k1[:]); err != nil {
			return nil, nil, err
		}
	}
	// Sender-side secret: k choice bits s.
	var sBytes [BaseOTs / 8]byte
	if _, err := rand.Read(sBytes[:]); err != nil {
		return nil, nil, err
	}
	s := make([]bool, BaseOTs)
	for i := range s {
		s[i] = getBit(sBytes[:], i)
	}

	// choice bitset r
	r := make([]byte, nBytes)
	for i, b := range choice {
		setBit(r, i, b)
	}

	recv := &ExtReceiver{m: m, choice: append([]bool(nil), choice...), cols: make([][]byte, BaseOTs)}
	send := &ExtSender{m: m, s: s, cols: make([][]byte, BaseOTs)}

	for i := 0; i < BaseOTs; i++ {
		// t_i = PRG(k0_i); u_i = t_i ⊕ PRG(k1_i) ⊕ r sent to sender.
		t := prg(seeds[i].k0, nBytes)
		p1 := prg(seeds[i].k1, nBytes)
		u := make([]byte, nBytes)
		for b := range u {
			u[b] = t[b] ^ p1[b] ^ r[b]
		}
		recv.cols[i] = t

		// Base OT: extension sender receives k_{s_i} obliviously.
		chooseMsg, err := ot.Choose(s[i])
		if err != nil {
			return nil, nil, err
		}
		reply, err := Transfer(ot.PublicKey(), chooseMsg, seeds[i].k0, seeds[i].k1)
		if err != nil {
			return nil, nil, err
		}
		got, err := ot.Receive(reply)
		if err != nil {
			return nil, nil, err
		}
		// q_i = PRG(k_{s_i}) ⊕ s_i·u
		q := prg(got, nBytes)
		if s[i] {
			for b := range q {
				q[b] ^= u[b]
			}
		}
		send.cols[i] = q
	}
	return send, recv, nil
}

// row extracts row j (k bits) of a column-major bit matrix as k/8 bytes.
func row(cols [][]byte, j int) []byte {
	out := make([]byte, BaseOTs/8)
	for i := 0; i < BaseOTs; i++ {
		if getBit(cols[i], j) {
			out[i/8] |= 1 << (uint(i) % 8)
		}
	}
	return out
}

// Transfer produces the sender's masked pair for index j.
func (s *ExtSender) Transfer(j int, m0, m1 Label) (y0, y1 Label, err error) {
	if j < 0 || j >= s.m {
		return y0, y1, fmt.Errorf("garble: extension index %d out of range [0,%d)", j, s.m)
	}
	qj := row(s.cols, j)
	qjs := make([]byte, len(qj))
	for i := 0; i < BaseOTs; i++ {
		v := getBit(qj, i) != s.s[i] // q_j ⊕ s
		setBit(qjs, i, v)
	}
	h0 := hashIdx(j, qj)
	h1 := hashIdx(j, qjs)
	y0 = m0.xor(h0)
	y1 = m1.xor(h1)
	return y0, y1, nil
}

// Receive unmasks the label matching the receiver's j-th choice bit.
func (r *ExtReceiver) Receive(j int, y0, y1 Label) (Label, error) {
	if j < 0 || j >= r.m {
		return Label{}, fmt.Errorf("garble: extension index %d out of range [0,%d)", j, r.m)
	}
	tj := row(r.cols, j)
	h := hashIdx(j, tj)
	if r.choice[j] {
		return y1.xor(h), nil
	}
	return y0.xor(h), nil
}
