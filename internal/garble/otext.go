package garble

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// This file implements semi-honest IKNP oblivious-transfer extension:
// BaseOTs base OTs — run once per party pair over the Paillier OT in this
// package — extend to any number of label transfers using only symmetric
// operations. Real garbled-circuit deployments (including EzPC, the
// paper's measured baseline) rely on OT extension with the base OTs paid
// once per pair of parties; without it the per-element ReLU conversions
// would be dominated by public-key operations and the baseline comparison
// would be meaningless.

// BaseOTs is the extension's security parameter: the base OTs one
// NewOTSetup runs, whatever the number of transfers it later serves.
const BaseOTs = 128

// baseOTKeyBits is the size of the Paillier key the base OTs run under:
// each transfers a 128-bit seed, which a 256-bit key's message space holds.
const baseOTKeyBits = 256

// blockBits is one PRG block, one SHA-256 output, in bits: the unit in
// which a batch reserves its segment of every seed's stream.
const blockBits = 8 * sha256.Size

// OTSetup is one party pair's IKNP state once its base OTs have run: the
// extension receiver's secret seed, from which it derives its seed pairs
// (k0ᵢ, k1ᵢ) (seedPair), and the extension sender's choice bits s with the
// seeds k_{sᵢ} it obtained obliviously. Both parties are modelled in one
// process, as in the ss-gc backend, so one value holds both sides; it
// keeps 2 KB of seeds.
//
// Extend serves any number of batches. Each batch reads a fresh segment of
// every seed's PRG stream and a fresh range of hash tweaks, so no block and
// no tweak is used twice within a setup, whatever the batches' sizes and
// however many run at once.
type OTSetup struct {
	seed Label          // receiver: expands into its seed pairs
	s    Label          // sender: bit i of s is its base-OT choice sᵢ
	ks   [BaseOTs]Label // sender: k_{sᵢ}

	mu     sync.Mutex
	blocks uint64 // the next unused block of every seed's PRG stream
	tweaks uint64 // the next unused hash tweak
}

// NewOTSetup runs the BaseOTs base OTs of a fresh setup under a fresh
// 256-bit base-OT key, with the roles reversed: the extension sender is
// the base-OT receiver. The key is dropped once they have run.
func NewOTSetup() (*OTSetup, error) {
	ot, err := NewOT(baseOTKeyBits)
	if err != nil {
		return nil, err
	}
	st, err := randomSetup()
	if err != nil {
		return nil, err
	}
	for i := range st.ks {
		chooseMsg, err := ot.Choose(getBit(st.s[:], i))
		if err != nil {
			return nil, err
		}
		k0, k1 := st.seedPair(i)
		reply, err := Transfer(ot.PublicKey(), chooseMsg, k0, k1)
		if err != nil {
			return nil, err
		}
		if st.ks[i], err = ot.Receive(reply); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// randomSetup draws the receiver's secret seed and the sender's choice
// bits; the sender's seeds are left for the base OTs to deliver.
func randomSetup() (*OTSetup, error) {
	st := &OTSetup{}
	var buf [2 * LabelSize]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return nil, fmt.Errorf("garble: randomness: %w", err)
	}
	copy(st.seed[:], buf[:])
	copy(st.s[:], buf[LabelSize:])
	return st, nil
}

// seedPair is the receiver's i-th seed pair: the two halves of SHA-256 of
// its secret seed and i.
func (st *OTSetup) seedPair(i int) (k0, k1 Label) {
	var in [LabelSize + 8]byte
	copy(in[:], st.seed[:])
	binary.LittleEndian.PutUint64(in[LabelSize:], uint64(i))
	sum := sha256.Sum256(in[:])
	copy(k0[:], sum[:LabelSize])
	copy(k1[:], sum[LabelSize:])
	return k0, k1
}

// prg fills dst with the seed's PRG stream from block first on: SHA-256
// of the seed and the block index, in counter mode. Semi-honest setting;
// a production system would use AES.
func prg(dst []byte, seed Label, first uint64) {
	var in [LabelSize + 8]byte
	copy(in[:], seed[:])
	for k := 0; k*sha256.Size < len(dst); k++ {
		binary.LittleEndian.PutUint64(in[LabelSize:], first+uint64(k))
		sum := sha256.Sum256(in[:])
		copy(dst[k*sha256.Size:], sum[:])
	}
}

// hashTweak is the extension's correlation-robust hash H(j, q).
func hashTweak(j uint64, q Label) Label {
	var in [8 + LabelSize]byte
	binary.LittleEndian.PutUint64(in[:], j)
	copy(in[8:], q[:])
	sum := sha256.Sum256(in[:])
	var out Label
	copy(out[:], sum[:])
	return out
}

func getBit(bs []byte, i int) bool { return bs[i/8]>>(uint(i)%8)&1 == 1 }

// scatterColumn sets bit i of rows[j] wherever bit j of col is set: one
// column of the k × m bit matrix written into its row-major form.
func scatterColumn(rows []Label, col []byte, i int) {
	mask := byte(1) << (uint(i) % 8)
	for b, v := range col[:(len(rows)+7)/8] {
		for ; v != 0; v &= v - 1 {
			if j := 8*b + bits.TrailingZeros8(v); j < len(rows) {
				rows[j][i/8] |= mask
			}
		}
	}
}

// batch is what both endpoints of one Extend know: its rows of the bit
// matrix (Q for the sender, T for the receiver), its hash tweaks
// [tweak, tweak+len(rows)) and the PRG blocks [first, first+blocks) it
// read.
type batch struct {
	rows          []Label
	tweak         uint64
	first, blocks uint64
}

func (b *batch) check(j int) error {
	if j < 0 || j >= len(b.rows) {
		return fmt.Errorf("garble: extension index %d out of range [0,%d)", j, len(b.rows))
	}
	return nil
}

// ExtSender is the extension sender's side of one batch: it can transfer
// any of the batch's label pairs with symmetric crypto only.
type ExtSender struct {
	batch
	s Label
}

// ExtReceiver is the extension receiver's side of one batch, with its
// choice bits.
type ExtReceiver struct {
	batch
	choice []byte // bit j: the j-th choice
}

// Extend reserves a batch of m transfers for the receiver's choice bits
// and returns both endpoints of it. It is safe to call concurrently.
func (st *OTSetup) Extend(m int, choice []bool) (*ExtSender, *ExtReceiver, error) {
	if m <= 0 {
		return nil, nil, fmt.Errorf("garble: extension needs m > 0, got %d", m)
	}
	if len(choice) != m {
		return nil, nil, fmt.Errorf("garble: %d choice bits for m=%d", len(choice), m)
	}
	blocks := uint64((m + blockBits - 1) / blockBits)
	st.mu.Lock()
	b := batch{first: st.blocks, blocks: blocks, tweak: st.tweaks}
	st.blocks += blocks
	st.tweaks += uint64(m)
	st.mu.Unlock()

	n := int(blocks) * sha256.Size
	buf := make([]byte, 4*n)
	r, t, p, q := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:]
	for j, c := range choice {
		if c {
			r[j/8] |= 1 << (uint(j) % 8)
		}
	}
	send := &ExtSender{batch: b, s: st.s}
	recv := &ExtReceiver{batch: b, choice: r}
	send.rows, recv.rows = make([]Label, m), make([]Label, m)
	for i := 0; i < BaseOTs; i++ {
		// Receiver: tᵢ = PRG(k0ᵢ), and uᵢ = tᵢ ⊕ PRG(k1ᵢ) ⊕ r goes to
		// the sender, which holds qᵢ = PRG(k_{sᵢ}) ⊕ sᵢ·uᵢ = tᵢ ⊕ sᵢ·r.
		k0, k1 := st.seedPair(i)
		prg(t, k0, b.first)
		prg(p, k1, b.first)
		prg(q, st.ks[i], b.first)
		if getBit(st.s[:], i) {
			for k := range q {
				q[k] ^= t[k] ^ p[k] ^ r[k]
			}
		}
		scatterColumn(recv.rows, t, i)
		scatterColumn(send.rows, q, i)
	}
	return send, recv, nil
}

// Transfer produces the sender's masked pair for index j of its batch:
// row qⱼ = tⱼ ⊕ rⱼ·s, so the receiver can unmask exactly the label its
// choice bit selects.
func (s *ExtSender) Transfer(j int, m0, m1 Label) (y0, y1 Label, err error) {
	if err := s.check(j); err != nil {
		return y0, y1, err
	}
	q := s.rows[j]
	tweak := s.tweak + uint64(j)
	return m0.xor(hashTweak(tweak, q)), m1.xor(hashTweak(tweak, q.xor(s.s))), nil
}

// Receive unmasks the label matching the receiver's j-th choice bit.
func (r *ExtReceiver) Receive(j int, y0, y1 Label) (Label, error) {
	if err := r.check(j); err != nil {
		return Label{}, err
	}
	h := hashTweak(r.tweak+uint64(j), r.rows[j])
	if getBit(r.choice, j) {
		return y1.xor(h), nil
	}
	return y0.xor(h), nil
}
