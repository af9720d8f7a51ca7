// Package backend puts every way the serving plane can execute a linear
// round behind one function, Execute. PP-Stream's original protocol runs
// all linear stages homomorphically under Paillier; this package makes
// that path one of three interchangeable backends:
//
//   - paillier-he — the paper's protocol: the model provider evaluates
//     the quantized stage over Paillier ciphertexts.
//   - ss-gc — additive secret sharing over Z_{2^64} with Beaver triples
//     for the linear stage (integer-exact, no truncation) and garbled-
//     circuit ReLU on the nonlinear side (half-gates, one batch of the
//     party pair's OT extension per layer). Both share-holders are modeled in-process with real
//     cost accounting — the same fidelity internal/baselines uses.
//   - clear — plaintext big-integer execution, permitted only for
//     rounds past the clear boundary the operator sets (C2PI-style:
//     internal/leakage.CertifyClearBoundary measures one offline, but
//     nothing here checks the boundary against it).
//
// All three backends execute the SAME quantized integer arithmetic
// (internal/qnn): paillier-he and ss-gc evaluate each op's kernel rows
// (qnn.Op.KernelRows), clear its ApplyPlain reference. Their
// reconstructed outputs are bit-identical — the differential tests pin
// that property — as long as ss-gc's ring holds the round's values, which
// PlanFor and CheckRing see to.
package backend

import (
	"fmt"
	"math/big"

	"ppstream/internal/obs"
	"ppstream/internal/paillier"
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
	// Clear is plaintext execution past the clear boundary.
	Clear Kind = "clear"
)

// Kinds lists every backend in wire-code order.
func Kinds() []Kind { return []Kind{PaillierHE, SSGC, Clear} }

// Code returns the kind's wire encoding in a session plan. Zero is
// paillier-he, the original protocol's one backend.
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
// backend: exactly one of CT, Sh, Plain is set, at the round's scale.
type Payload struct {
	Kind  Kind
	CT    *paillier.CipherTensor
	Sh    *tensor.Tensor[secshare.Shares]
	Plain *tensor.Tensor[*big.Int]
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
	out := &Payload{Kind: p.Kind}
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
// sequence, its non-zero weight multiplications (qnn.MulCount, counted
// once when the stage is built) and the thread count the allocation plan
// chose, over which paillier-he splits each op's outputs
// (qnn.ApplyStage).
type Stage struct {
	Ops     []qnn.Op
	Muls    uint64
	Threads int
}

// Execute runs the stage over in — a round input, at scale F¹ — under
// in.Kind's crypto regime and returns the output payload, at scale
// F^(1+qnn.ScaleSteps) of the stage's layers. paillier-he evaluates
// through ev, which meters its own crypto ops; ss-gc draws a fresh
// Beaver-triple dealer from crypto/rand per call, so concurrent rounds
// never share dealer state; the ss-gc and clear op counts go to m (nil
// skips them), clear's as the stage's Muls.
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
		out.CT, err = qnn.ApplyStage(ev, st.Ops, in.CT, st.Threads)
	case SSGC:
		var seed uint64
		if seed, err = randomWord(); err != nil {
			return nil, err
		}
		dealer := secshare.NewEngine(int64(seed))
		out.Sh, err = qnn.ApplyStageShared(dealer, st.Ops, in.Sh)
		m.Add(dealer.Stats)
	case Clear:
		out.Plain, err = qnn.ApplyStagePlain(st.Ops, in.Plain)
		m.Add(obs.CostStats{PlainOps: st.Muls})
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
