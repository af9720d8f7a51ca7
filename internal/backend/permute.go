package backend

import (
	"fmt"

	"ppstream/internal/obfuscate"
	"ppstream/internal/tensor"
)

// Obfuscation is uniform across backends: every intermediate round's
// output is permuted regardless of how it was computed — ciphertexts,
// share pairs, or plaintext integers move as opaque elements — so the
// position-privacy argument of the paper is unchanged by the backend
// choice, and the data provider's inverse permutation step stays
// backend-agnostic.

// ApplyPerm returns the payload with its elements permuted (flattened
// order), preserving the representation.
func (p *Payload) ApplyPerm(perm *obfuscate.Permutation) (*Payload, error) {
	out := &Payload{Kind: p.Kind}
	var err error
	switch p.Kind {
	case PaillierHE:
		out.CT, err = obfuscate.ApplyTensor(perm, p.CT)
	case SSGC:
		out.Sh, err = obfuscate.ApplyTensor(perm, p.Sh)
	case Clear:
		out.Plain, err = obfuscate.ApplyTensor(perm, p.Plain)
	default:
		err = fmt.Errorf("backend: cannot permute payload of kind %q", p.Kind)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// InvertPerm undoes a permutation, restoring the given shape.
func (p *Payload) InvertPerm(perm *obfuscate.Permutation, shape tensor.Shape) (*Payload, error) {
	out := &Payload{Kind: p.Kind}
	var err error
	switch p.Kind {
	case PaillierHE:
		out.CT, err = obfuscate.InvertTensor(perm, p.CT, shape)
	case SSGC:
		out.Sh, err = obfuscate.InvertTensor(perm, p.Sh, shape)
	case Clear:
		out.Plain, err = obfuscate.InvertTensor(perm, p.Plain, shape)
	default:
		err = fmt.Errorf("backend: cannot invert payload of kind %q", p.Kind)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
