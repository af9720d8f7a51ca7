// Package backend puts every way the serving plane can execute a linear
// round behind one function, Execute. PP-Stream's original protocol runs
// all linear stages homomorphically under Paillier; this package makes
// that path one of three interchangeable backends:
//
//   - paillier-he — the paper's protocol: the model provider evaluates
//     the quantized stage over Paillier ciphertexts.
//   - ss-gc — additive secret sharing over Z_{2^64} with Beaver triples
//     for the linear stage (integer-exact, no truncation) and garbled-
//     circuit ReLU on the nonlinear side (half-gates, one OT extension
//     per layer). Both share-holders are modeled in-process with real
//     cost accounting — the same fidelity internal/baselines uses.
//   - clear — plaintext big-integer execution, permitted only for
//     rounds past the leakage-certified boundary (C2PI-style): the
//     stage input's distance correlation with the raw model input has
//     been measured below threshold, so skipping crypto there does not
//     expose the input.
//
// All three backends execute the SAME quantized integer arithmetic
// (internal/qnn), so their reconstructed outputs are bit-identical —
// the differential tests pin that property.
package backend

import (
	"fmt"
	"math/big"

	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/partition"
	"ppstream/internal/qnn"
	"ppstream/internal/secshare"
	"ppstream/internal/tensor"
)

// Kind names a layer-execution backend. The string forms appear in
// trace segment labels; the Code forms go on the wire.
type Kind string

const (
	// PaillierHE is the paper's homomorphic path.
	PaillierHE Kind = "paillier-he"
	// SSGC is additive secret sharing + garbled-circuit ReLU.
	SSGC Kind = "ss-gc"
	// Clear is plaintext execution past the certified boundary.
	Clear Kind = "clear"
)

// Kinds lists every backend in wire-code order.
func Kinds() []Kind { return []Kind{PaillierHE, SSGC, Clear} }

// Code returns the additive wire encoding of the kind. Zero is
// paillier-he so that absent fields from older peers decode to the
// original protocol.
func (k Kind) Code() int32 {
	switch k {
	case SSGC:
		return 1
	case Clear:
		return 2
	default:
		return 0
	}
}

// MetricName returns the kind's metrics-label form (dots and dashes are
// structure characters in metric names, so backends label with
// underscores: cost.paillier_he.modexps).
func (k Kind) MetricName() string {
	switch k {
	case SSGC:
		return "ss_gc"
	case Clear:
		return "clear"
	default:
		return "paillier_he"
	}
}

// KindFromCode decodes a wire code.
func KindFromCode(c int32) (Kind, error) {
	switch c {
	case 0:
		return PaillierHE, nil
	case 1:
		return SSGC, nil
	case 2:
		return Clear, nil
	default:
		return "", fmt.Errorf("backend: unknown backend code %d", c)
	}
}

// Payload is a round's activation tensor in the representation of its
// backend: exactly one of CT, Sh, Plain is set, all at scale F^Exp.
type Payload struct {
	Kind  Kind
	CT    *paillier.CipherTensor
	Sh    *tensor.Tensor[secshare.Shares]
	Plain *tensor.Tensor[*big.Int]
	Exp   int
}

// Shape returns the payload tensor's shape.
func (p *Payload) Shape() (tensor.Shape, error) {
	switch p.Kind {
	case PaillierHE:
		if p.CT == nil {
			return nil, fmt.Errorf("backend: paillier payload without ciphertexts")
		}
		return p.CT.Shape(), nil
	case SSGC:
		if p.Sh == nil {
			return nil, fmt.Errorf("backend: ss-gc payload without shares")
		}
		return p.Sh.Shape(), nil
	case Clear:
		if p.Plain == nil {
			return nil, fmt.Errorf("backend: clear payload without values")
		}
		return p.Plain.Shape(), nil
	default:
		return nil, fmt.Errorf("backend: payload has unknown kind %q", p.Kind)
	}
}

// Size returns the number of elements.
func (p *Payload) Size() (int, error) {
	s, err := p.Shape()
	if err != nil {
		return 0, err
	}
	return s.Size(), nil
}

// Reshape returns the payload viewing its elements under a new shape of
// the same size, whatever the representation.
func (p *Payload) Reshape(shape tensor.Shape) (*Payload, error) {
	out := &Payload{Kind: p.Kind, Exp: p.Exp}
	var err error
	switch p.Kind {
	case PaillierHE:
		if p.CT == nil {
			return nil, fmt.Errorf("backend: paillier payload without ciphertexts")
		}
		out.CT, err = p.CT.Reshape(shape...)
	case SSGC:
		if p.Sh == nil {
			return nil, fmt.Errorf("backend: ss-gc payload without shares")
		}
		out.Sh, err = p.Sh.Reshape(shape...)
	case Clear:
		if p.Plain == nil {
			return nil, fmt.Errorf("backend: clear payload without values")
		}
		out.Plain, err = p.Plain.Reshape(shape...)
	default:
		err = fmt.Errorf("backend: cannot reshape payload of kind %q", p.Kind)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stage describes one linear round's work for a backend: its op
// sequence, shapes, and the execution plan the pipeline chose.
type Stage struct {
	Ops      []qnn.Op
	InShape  tensor.Shape
	OutShape tensor.Shape
	Threads  int
	// InputPartition runs a paillier-he stage through the partitioning
	// executor with input and output tensor partitioning (Section IV-D);
	// otherwise the stage takes the shared-memory path.
	InputPartition bool
}

// Execute runs the stage over in under in.Kind's crypto regime and returns
// the output payload at the raised scale exponent. paillier-he evaluates
// through ev, which meters its own crypto ops; ss-gc draws a fresh
// Beaver-triple dealer from crypto/rand per call, so concurrent rounds
// never share dealer state; the ss-gc and clear op counts go to m (nil
// skips them).
func Execute(ev *paillier.Evaluator, m *obs.CostMeter, st *Stage, in *Payload) (*Payload, error) {
	if _, err := in.Shape(); err != nil {
		return nil, err
	}
	out := &Payload{Kind: in.Kind}
	var err error
	switch in.Kind {
	case PaillierHE:
		if ev == nil {
			return nil, fmt.Errorf("backend: paillier-he needs an evaluator")
		}
		if st.InputPartition {
			out.CT, out.Exp, _, err = partition.ExecuteStage(ev, st.Ops, in.CT, in.Exp, st.Threads, true)
		} else {
			out.CT, out.Exp, err = qnn.ApplyStage(ev, st.Ops, in.CT, in.Exp, st.Threads)
		}
	case SSGC:
		var seed uint64
		if seed, err = randomWord(); err != nil {
			return nil, err
		}
		dealer := secshare.NewEngine(int64(seed))
		out.Sh, out.Exp, err = qnn.ApplyStageShared(dealer, st.Ops, in.Sh, in.Exp)
		m.Add(obs.CostStats{Triples: uint64(dealer.Stats.TriplesUsed), OpenedWords: uint64(dealer.Stats.OpenedWords)})
	case Clear:
		out.Plain, out.Exp, err = qnn.ApplyStagePlain(st.Ops, in.Plain, in.Exp)
		var muls uint64
		shape := in.Plain.Shape()
		for _, op := range st.Ops {
			muls += uint64(qnn.MulCount(op, shape))
			if s, err := op.OutShape(shape); err == nil {
				shape = s
			}
		}
		m.Add(obs.CostStats{PlainOps: muls})
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
