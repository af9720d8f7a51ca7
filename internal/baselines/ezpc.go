package baselines

import (
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"ppstream/internal/backend"
	"ppstream/internal/garble"
	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/qnn"
	"ppstream/internal/secshare"
	"ppstream/internal/tensor"
)

// ezpcFracBits is the engine's fixed-point precision: activations are
// shared at scale 2^16, and every parameterized layer's output is
// truncated back to it.
const ezpcFracBits = 16

// EzPC is the EzPC-style two-party inference engine: linear layers over
// additive shares with party-0-private weights (the quantized ops of the
// ss-gc backend, truncated back to scale after each), ReLU through
// garbled circuits, SoftMax on the opened final scores.
type EzPC struct {
	net *nn.Network
	ops []qnn.Op // per layer; nil for ReLU and SoftMax
	rng *rand.Rand
	eng *secshare.Engine
	ot  *garble.OTSetup // run at the first ReLU, then reused
	gc  obs.CostMeter
}

// NewEzPC builds the engine for a supported network (FC/Conv/BatchNorm/
// Flatten/ReLU with a final SoftMax).
func NewEzPC(net *nn.Network, seed int64) (*EzPC, error) {
	if err := checkSupported(net); err != nil {
		return nil, err
	}
	ops := make([]qnn.Op, len(net.Layers))
	for i, l := range net.Layers {
		switch l.(type) {
		case *nn.ReLU, *nn.SoftMax:
			continue
		}
		op, err := qnn.Quantize(l, 1<<ezpcFracBits)
		if err != nil {
			return nil, fmt.Errorf("baselines: ezpc: %w", err)
		}
		ops[i] = op
	}
	return &EzPC{net: net, ops: ops, rng: rand.New(rand.NewSource(seed)), eng: secshare.NewEngine(seed + 1)}, nil
}

// Stats reports what the engine's inferences have cost so far: the
// Beaver triples and opened words of the linear layers, and the garbled
// gates and extension OTs of the ReLUs.
func (e *EzPC) Stats() obs.CostStats {
	st := e.gc.Snapshot()
	st.Add(e.eng.Stats)
	return st
}

// Infer runs one private inference and reports the output distribution
// and latency.
func (e *EzPC) Infer(x *tensor.Dense) (*tensor.Dense, time.Duration, error) {
	start := time.Now()
	if !x.Shape().Equal(e.net.InputShape) {
		return nil, 0, fmt.Errorf("baselines: input shape %v, want %v", x.Shape(), e.net.InputShape)
	}
	cur := tensor.Map(qnn.ScaleInput(x, 1<<ezpcFracBits), func(v int64) secshare.Shares {
		return secshare.Split(e.rng, uint64(v))
	})
	for i, l := range e.net.Layers {
		var err error
		switch l.(type) {
		case *nn.ReLU:
			cur, err = e.relu(cur)
		case *nn.SoftMax:
			// Final (checkSupported): applied to the opened scores below.
		default:
			cur, err = e.linear(l, e.ops[i], cur)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("baselines: ezpc layer %d (%s): %w", i, l.Name(), err)
		}
	}
	// Open the final scores to the client and finish in plaintext —
	// standard in 2PC inference (the client learns the result).
	opened := tensor.Map(cur, func(s secshare.Shares) *big.Int {
		return big.NewInt(secshare.SignedOfRing(s.Reconstruct()))
	})
	out, err := qnn.Descale(opened, 1<<ezpcFracBits, 1)
	if err != nil {
		return nil, 0, err
	}
	if sm, ok := e.net.Layers[len(e.net.Layers)-1].(*nn.SoftMax); ok {
		if out, err = sm.Forward(out); err != nil {
			return nil, 0, err
		}
	}
	return out, time.Since(start), nil
}

// linear runs layer l, quantized as op, over the shares at scale 2^16 and
// truncates its output back to that scale.
func (e *EzPC) linear(l nn.Layer, op qnn.Op, x *tensor.Tensor[secshare.Shares]) (*tensor.Tensor[secshare.Shares], error) {
	out, err := qnn.ApplyStageShared(e.eng, []qnn.Op{op}, x)
	if err != nil || qnn.ScaleSteps([]nn.Layer{l}) == 0 {
		return out, err
	}
	d := out.Data()
	for i := range d {
		d[i] = secshare.Truncate(d[i], ezpcFracBits)
	}
	return out, nil
}

// relu converts every element through a garbled circuit — the
// arithmetic→boolean→arithmetic round trip that EzPC pays at each
// non-linear layer — with the ss-gc backend's garbled ReLU: half-gates,
// one batch of the engine's OT extension for the whole layer. As in EzPC,
// the base OTs run once, at the engine's first ReLU.
func (e *EzPC) relu(x *tensor.Tensor[secshare.Shares]) (*tensor.Tensor[secshare.Shares], error) {
	if e.ot == nil {
		ot, err := garble.NewOTSetup()
		if err != nil {
			return nil, err
		}
		e.ot = ot
	}
	out, err := backend.GCReLUShares(e.ot, x.Data(), &e.gc)
	if err != nil {
		return nil, err
	}
	return tensor.FromSlice(out, x.Shape()...)
}
