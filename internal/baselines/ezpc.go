package baselines

import (
	"fmt"
	"math"
	"time"

	"ppstream/internal/backend"
	"ppstream/internal/garble"
	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/qnn"
	"ppstream/internal/secshare"
	"ppstream/internal/tensor"
)

// EzPCStats accounts the two-party engine's protocol costs — the
// quantities behind the paper's explanation of EzPC's latency: frequent
// transitions between secret sharing and garbled circuits, and multiple
// interaction rounds per layer.
type EzPCStats struct {
	// Transitions counts arithmetic↔boolean protocol switches.
	Transitions int
	// GCExecutions counts garbled circuits evaluated.
	GCExecutions int
	// ANDGates counts total garbled AND gates (2 half-gates table rows
	// each).
	ANDGates int
	// BaseOTs counts the public-key base OTs that ran: one setup's worth
	// per engine, which every layer's extension then draws from.
	BaseOTs int
	// ExtOTs counts extended oblivious transfers.
	ExtOTs int
	// Share/open statistics come from the arithmetic engine.
	Arithmetic secshare.Stats
}

// EzPC is the EzPC-style two-party inference engine: linear layers over
// additive shares with party-0-private weights, ReLU through garbled
// circuits, SoftMax on the opened final scores.
type EzPC struct {
	net        *nn.Network
	eng        *secshare.Engine
	ot         *garble.OTSetup // run at the first ReLU, then reused
	lastOutput *tensor.Dense
	Stats      EzPCStats
}

// NewEzPC builds the engine for a supported network (FC/Conv/BatchNorm/
// Flatten/ReLU with a final SoftMax).
func NewEzPC(net *nn.Network, seed int64) (*EzPC, error) {
	if err := checkSupported(net); err != nil {
		return nil, err
	}
	return &EzPC{net: net, eng: secshare.NewEngine(seed)}, nil
}

// Infer runs one private inference and reports the output distribution
// and latency.
func (e *EzPC) Infer(x *tensor.Dense) (*tensor.Dense, time.Duration, error) {
	start := time.Now()
	if !x.Shape().Equal(e.net.InputShape) {
		return nil, 0, fmt.Errorf("baselines: input shape %v, want %v", x.Shape(), e.net.InputShape)
	}
	shares := e.eng.ShareVec(x.Flatten().Data())
	shape := e.net.InputShape
	for i, l := range e.net.Layers {
		var err error
		shares, shape, err = e.applyLayer(l, shares, shape, i == len(e.net.Layers)-1)
		if err != nil {
			return nil, 0, fmt.Errorf("baselines: ezpc layer %d (%s): %w", i, l.Name(), err)
		}
		if shares == nil {
			// The final SoftMax produced the plaintext result.
			break
		}
	}
	out := e.lastOutput
	e.lastOutput = nil
	if out == nil {
		return nil, 0, fmt.Errorf("baselines: ezpc inference ended without a result")
	}
	return out, time.Since(start), nil
}

func (e *EzPC) applyLayer(l nn.Layer, x []secshare.Shares, shape tensor.Shape, last bool) ([]secshare.Shares, tensor.Shape, error) {
	switch v := l.(type) {
	case *nn.FC:
		w := make([][]float64, v.Out())
		for o := 0; o < v.Out(); o++ {
			w[o] = v.W.Data()[o*v.In() : (o+1)*v.In()]
		}
		out, err := e.eng.MatVecPrivate(w, v.B.Data(), x)
		if err != nil {
			return nil, nil, err
		}
		return out, tensor.Shape{v.Out()}, nil
	case *nn.Conv:
		return e.applyConv(v, x, shape)
	case *nn.BatchNorm:
		return e.applyBatchNorm(v, x, shape)
	case *nn.Flatten:
		return x, tensor.Shape{shape.Size()}, nil
	case *nn.ReLU:
		out, err := e.applyReLU(x)
		return out, shape, err
	case *nn.SoftMax:
		if !last {
			return nil, nil, fmt.Errorf("SoftMax only supported as the final layer")
		}
		// Open the final scores to the client and finish in plaintext —
		// standard in 2PC inference (the client learns the result).
		vals := e.eng.OpenVec(x)
		logits, err := tensor.FromSlice(vals, shape...)
		if err != nil {
			return nil, nil, err
		}
		res, err := v.Forward(logits)
		if err != nil {
			return nil, nil, err
		}
		e.lastOutput = res
		return nil, shape, nil
	default:
		return nil, nil, fmt.Errorf("unsupported layer type %T", l)
	}
}

func (e *EzPC) applyConv(v *nn.Conv, x []secshare.Shares, shape tensor.Shape) ([]secshare.Shares, tensor.Shape, error) {
	p := v.P
	want := tensor.Shape{p.InC, p.InH, p.InW}
	if shape.Size() != want.Size() {
		return nil, nil, fmt.Errorf("conv input %v, want %v", shape, want)
	}
	rows := qnn.GatherRows(p)
	oh, ow := p.OutH(), p.OutW()
	out := make([]secshare.Shares, p.OutC*oh*ow)
	rowLen := p.InC * p.KH * p.KW
	e.Stats.Arithmetic = e.eng.Stats
	for f := 0; f < p.OutC; f++ {
		filt := v.W.Data()[f*rowLen : (f+1)*rowLen]
		for pos := 0; pos < oh*ow; pos++ {
			// Gather the receptive field (zero share for padding).
			var ws []float64
			var xs []secshare.Shares
			for k, off := range rows[pos] {
				if off < 0 || filt[k] == 0 {
					continue
				}
				ws = append(ws, filt[k])
				xs = append(xs, x[off])
			}
			s, err := e.eng.DotPrivate(ws, xs, v.B.Data()[f])
			if err != nil {
				return nil, nil, err
			}
			out[f*oh*ow+pos] = s
		}
	}
	e.eng.Stats.Rounds++ // one batched opening round for the layer
	return out, tensor.Shape{p.OutC, oh, ow}, nil
}

func (e *EzPC) applyBatchNorm(v *nn.BatchNorm, x []secshare.Shares, shape tensor.Shape) ([]secshare.Shares, tensor.Shape, error) {
	per := 1
	if shape.Rank() == 3 {
		if shape[0] != v.Channels {
			return nil, nil, fmt.Errorf("batchnorm channels %d, input %v", v.Channels, shape)
		}
		per = shape[1] * shape[2]
	} else if shape.Size() != v.Channels {
		return nil, nil, fmt.Errorf("batchnorm features %d, input %v", v.Channels, shape)
	}
	out := make([]secshare.Shares, len(x))
	e.eng.Stats.Rounds++
	for i := range x {
		c := i / per
		inv := 1 / math.Sqrt(v.Var.At(c)+v.Eps)
		a := v.Gamma.At(c) * inv
		b := v.Beta.At(c) - a*v.Mean.At(c)
		s, err := e.eng.DotPrivate([]float64{a}, []secshare.Shares{x[i]}, b)
		if err != nil {
			return nil, nil, err
		}
		out[i] = s
	}
	return out, shape, nil
}

// applyReLU converts every element through a garbled circuit — the
// arithmetic→boolean→arithmetic round trip that EzPC pays at each
// non-linear layer — with the ss-gc backend's garbled ReLU: half-gates,
// one batch of the engine's OT extension for the whole layer. As in EzPC,
// the base OTs run once, at the engine's first ReLU.
func (e *EzPC) applyReLU(x []secshare.Shares) ([]secshare.Shares, error) {
	if e.ot == nil {
		ot, err := garble.NewOTSetup()
		if err != nil {
			return nil, err
		}
		e.ot = ot
		e.Stats.BaseOTs += garble.BaseOTs
	}
	var meter obs.CostMeter
	out, err := backend.GCReLUShares(e.ot, x, &meter)
	if err != nil {
		return nil, err
	}
	cost := meter.Snapshot()
	e.Stats.Transitions += 2 // arith→GC and GC→arith
	e.Stats.GCExecutions += len(x)
	e.Stats.ANDGates += int(cost.GCGates)
	e.Stats.ExtOTs += int(cost.ExtOTs)
	e.Stats.Arithmetic = e.eng.Stats
	return out, nil
}
