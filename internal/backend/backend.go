// Package backend puts every way the serving plane can execute a linear
// round behind one interface. PP-Stream's original protocol runs all
// linear stages homomorphically under Paillier; this package promotes
// that path to one of three interchangeable LayerBackends:
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
	Ops              []qnn.Op
	InShape          tensor.Shape
	OutShape         tensor.Shape
	Threads          int
	InputPartition   bool
	UsePartitionExec bool
}

// ExecEnv carries the execution resources a backend may draw on. Eval
// is required by paillier-he, SS by ss-gc; Meter (optional) receives
// the non-Paillier cost accounting (the evaluator meters the Paillier
// path itself).
type ExecEnv struct {
	Eval    *paillier.Evaluator
	SS      *secshare.Engine
	Workers int
	Meter   *obs.CostMeter
}

// LayerBackend executes linear rounds under one crypto regime.
type LayerBackend interface {
	// Kind identifies the backend.
	Kind() Kind
	// Execute runs the stage over the payload, which must carry this
	// backend's representation, and returns the output payload at the
	// raised scale exponent.
	Execute(env *ExecEnv, st *Stage, in *Payload) (*Payload, error)
}

// For returns the backend implementing a kind.
func For(k Kind) (LayerBackend, error) {
	switch k {
	case PaillierHE:
		return paillierBackend{}, nil
	case SSGC:
		return ssgcBackend{}, nil
	case Clear:
		return clearBackend{}, nil
	default:
		return nil, fmt.Errorf("backend: no implementation for kind %q", k)
	}
}

type paillierBackend struct{}

func (paillierBackend) Kind() Kind { return PaillierHE }

func (paillierBackend) Execute(env *ExecEnv, st *Stage, in *Payload) (*Payload, error) {
	if in.Kind != PaillierHE || in.CT == nil {
		return nil, fmt.Errorf("backend: paillier-he got %q payload", in.Kind)
	}
	if env.Eval == nil {
		return nil, fmt.Errorf("backend: paillier-he needs an evaluator")
	}
	var (
		out    *paillier.CipherTensor
		outExp int
		err    error
	)
	if st.UsePartitionExec {
		out, outExp, _, err = partition.ExecuteStage(env.Eval, st.Ops, in.CT, in.Exp, st.Threads, st.InputPartition)
	} else {
		out, outExp, err = qnn.ApplyStage(env.Eval, st.Ops, in.CT, in.Exp, env.Workers)
	}
	if err != nil {
		return nil, err
	}
	return &Payload{Kind: PaillierHE, CT: out, Exp: outExp}, nil
}

type ssgcBackend struct{}

func (ssgcBackend) Kind() Kind { return SSGC }

func (ssgcBackend) Execute(env *ExecEnv, st *Stage, in *Payload) (*Payload, error) {
	if in.Kind != SSGC || in.Sh == nil {
		return nil, fmt.Errorf("backend: ss-gc got %q payload", in.Kind)
	}
	if env.SS == nil {
		return nil, fmt.Errorf("backend: ss-gc needs a share engine")
	}
	before := env.SS.Stats
	out, outExp, err := qnn.ApplyStageShared(env.SS, st.Ops, in.Sh, in.Exp)
	if err != nil {
		return nil, err
	}
	if env.Meter != nil {
		env.Meter.Add(obs.CostStats{
			Triples:     uint64(env.SS.Stats.TriplesUsed - before.TriplesUsed),
			OpenedWords: uint64(env.SS.Stats.OpenedWords - before.OpenedWords),
		})
	}
	return &Payload{Kind: SSGC, Sh: out, Exp: outExp}, nil
}

type clearBackend struct{}

func (clearBackend) Kind() Kind { return Clear }

func (clearBackend) Execute(env *ExecEnv, st *Stage, in *Payload) (*Payload, error) {
	if in.Kind != Clear || in.Plain == nil {
		return nil, fmt.Errorf("backend: clear got %q payload", in.Kind)
	}
	out, outExp, err := qnn.ApplyStagePlain(st.Ops, in.Plain, in.Exp)
	if err != nil {
		return nil, err
	}
	if env.Meter != nil {
		var muls uint64
		shape := in.Plain.Shape()
		for _, op := range st.Ops {
			muls += uint64(qnn.MulCount(op, shape))
			if s, err := op.OutShape(shape); err == nil {
				shape = s
			}
		}
		env.Meter.Add(obs.CostStats{PlainOps: muls})
	}
	return &Payload{Kind: Clear, Plain: out, Exp: outExp}, nil
}
