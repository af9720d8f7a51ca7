package garble

import (
	"crypto/rand"
	"fmt"
	"math/big"

	"ppstream/internal/paillier"
)

// OT implements semi-honest 1-out-of-2 oblivious transfer over Paillier:
// the receiver sends an encryption of its choice bit b; the sender
// replies with E(m0 + b·(m1 − m0)) computed homomorphically; the
// receiver decrypts m_b and learns nothing about m_{1−b}, while the
// sender learns nothing about b (semantic security of the encryption).
//
// It transfers wire labels (128-bit), which fit comfortably in the
// message space of any supported key.
type OT struct {
	receiverKey *paillier.PrivateKey
}

// NewOT creates an OT context with a fresh receiver key of the given
// size (use ≥ 256 bits; labels are 128-bit).
func NewOT(bits int) (*OT, error) {
	key, err := paillier.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, err
	}
	return &OT{receiverKey: key}, nil
}

// Choose produces the receiver's first message for choice bit b. The
// receiver owns the key, so it encrypts as the key holder.
func (o *OT) Choose(b bool) (*paillier.Ciphertext, error) {
	v := int64(0)
	if b {
		v = 1
	}
	return o.receiverKey.EncryptInt64(rand.Reader, v)
}

// Transfer is the sender's reply: E(m0) · E(b)^{m1−m0}.
func Transfer(pk *paillier.PublicKey, choice *paillier.Ciphertext, m0, m1 Label) (*paillier.Ciphertext, error) {
	i0 := new(big.Int).SetBytes(m0[:])
	i1 := new(big.Int).SetBytes(m1[:])
	diff := new(big.Int).Sub(i1, i0)
	term, err := pk.MulScalar(choice, diff)
	if err != nil {
		return nil, err
	}
	return pk.AddPlain(term, i0)
}

// Receive decrypts the sender's reply into the chosen label.
func (o *OT) Receive(reply *paillier.Ciphertext) (Label, error) {
	var out Label
	m, err := o.receiverKey.Decrypt(reply)
	if err != nil {
		return out, err
	}
	if m.Sign() < 0 || m.BitLen() > LabelSize*8 {
		return out, fmt.Errorf("garble: OT reply out of label range (%d bits)", m.BitLen())
	}
	m.FillBytes(out[:])
	return out, nil
}

// PublicKey exposes the receiver's public key for the sender side.
func (o *OT) PublicKey() *paillier.PublicKey { return &o.receiverKey.PublicKey }
