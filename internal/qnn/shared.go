package qnn

import (
	"fmt"

	"ppstream/internal/secshare"
	"ppstream/internal/tensor"
)

// This file is the secret-shared execution form of the quantized linear
// ops: the same integer arithmetic ApplyPlain performs over big
// integers, carried out over additive shares in Z_{2^64} with Beaver
// triples and NO truncation (secshare's integer-exact ring ops). While
// magnitudes stay below 2^63 — which the protocol's scale guard already
// enforces for the Paillier path — reconstruction is bit-identical to
// the plaintext reference, so the ss-gc backend slots into the protocol
// without changing results.

// SharedOp is implemented by quantized ops that can evaluate over
// additive secret shares; every built-in op qualifies.
type SharedOp interface {
	// ApplyShared evaluates the op over a shared tensor whose underlying
	// integers are at scale F^inExp, returning shares at scale
	// F^(inExp+ScaleSteps()). The engine supplies Beaver triples and
	// accounts openings.
	ApplyShared(e *secshare.Engine, x *tensor.Tensor[secshare.Shares], inExp int) (*tensor.Tensor[secshare.Shares], error)
}

// ApplyShared implements SharedOp: row o is the untruncated Beaver dot
// product of the private weight row with the shared activations.
func (q *QFC) ApplyShared(e *secshare.Engine, x *tensor.Tensor[secshare.Shares], inExp int) (*tensor.Tensor[secshare.Shares], error) {
	xs := x.Flatten().Data()
	if len(xs) != len(q.W[0]) {
		return nil, fmt.Errorf("qnn: %s expects %d inputs, got %d", q.name, len(q.W[0]), len(xs))
	}
	out := tensor.New[secshare.Shares](len(q.W))
	for o := range q.W {
		s, err := e.DotPrivateInt(q.W[o], xs, biasAt(q.B[o], q.F, inExp+1))
		if err != nil {
			return nil, fmt.Errorf("qnn: %s: %w", q.name, err)
		}
		out.SetFlat(o, s)
	}
	return out, nil
}

// ApplyShared implements SharedOp: each output element gathers its
// receptive field (padding and zero weights contribute nothing, exactly
// as in ApplyPlain) and runs one untruncated shared dot product.
func (q *QConv) ApplyShared(e *secshare.Engine, x *tensor.Tensor[secshare.Shares], inExp int) (*tensor.Tensor[secshare.Shares], error) {
	xs := x.Flatten().Data()
	if len(xs) != q.P.InC*q.P.InH*q.P.InW {
		return nil, fmt.Errorf("qnn: %s expects %d inputs, got %d", q.name, q.P.InC*q.P.InH*q.P.InW, len(xs))
	}
	oh, ow := q.P.OutH(), q.P.OutW()
	out := tensor.New[secshare.Shares](q.P.OutC, oh, ow)
	for f := 0; f < q.P.OutC; f++ {
		bias := biasAt(q.B[f], q.F, inExp+1)
		for pos := 0; pos < oh*ow; pos++ {
			row := q.Rows[pos]
			ws := make([]int32, 0, len(row))
			in := make([]secshare.Shares, 0, len(row))
			for k, off := range row {
				if off < 0 || q.W[f][k] == 0 {
					continue
				}
				ws = append(ws, q.W[f][k])
				in = append(in, xs[off])
			}
			s, err := e.DotPrivateInt(ws, in, bias)
			if err != nil {
				return nil, fmt.Errorf("qnn: %s: %w", q.name, err)
			}
			out.SetFlat(f*oh*ow+pos, s)
		}
	}
	return out, nil
}

// ApplyShared implements SharedOp: per-element private scale and shift.
func (q *QAffine) ApplyShared(e *secshare.Engine, x *tensor.Tensor[secshare.Shares], inExp int) (*tensor.Tensor[secshare.Shares], error) {
	idx, err := q.coeffIndex(x.Shape())
	if err != nil {
		return nil, err
	}
	out := tensor.New[secshare.Shares](x.Shape()...)
	xd := x.Data()
	for i, v := range xd {
		c := idx(i)
		if q.Shift != nil && q.Shift[c] != 0 {
			out.SetFlat(i, e.ScalePrivateInt(int64(q.Scale[c]), biasAt(q.Shift[c], q.F, inExp+1), v))
		} else {
			out.SetFlat(i, e.ScalePrivateInt(int64(q.Scale[c]), nil, v))
		}
	}
	return out, nil
}

// ApplyShared implements SharedOp: reshape only.
func (q *QFlatten) ApplyShared(_ *secshare.Engine, x *tensor.Tensor[secshare.Shares], _ int) (*tensor.Tensor[secshare.Shares], error) {
	return x.Flatten(), nil
}

// ApplyStageShared runs a stage's ops in sequence over a shared tensor,
// returning the result and the output scale exponent. Every built-in op
// implements SharedOp; a custom op that does not triggers an error.
func ApplyStageShared(e *secshare.Engine, ops []Op, x *tensor.Tensor[secshare.Shares], inExp int) (*tensor.Tensor[secshare.Shares], int, error) {
	cur, exp := x, inExp
	for _, op := range ops {
		so, ok := op.(SharedOp)
		if !ok {
			return nil, 0, fmt.Errorf("qnn: op %s (%T) has no shared execution form", op.Name(), op)
		}
		out, err := so.ApplyShared(e, cur, exp)
		if err != nil {
			return nil, 0, fmt.Errorf("qnn: applying %s (shared): %w", op.Name(), err)
		}
		cur = out
		exp += op.ScaleSteps()
	}
	return cur, exp, nil
}

// MulCount reports the number of non-zero weight multiplications the op
// performs for the given input shape — the size term of every backend's
// cost model (Paillier modexps, Beaver triples, and plain big-int muls
// all scale with it).
func MulCount(op Op, in tensor.Shape) int {
	switch q := op.(type) {
	case *QFC:
		n := 0
		for _, row := range q.W {
			for _, w := range row {
				if w != 0 {
					n++
				}
			}
		}
		return n
	case *QConv:
		n := 0
		for f := range q.W {
			for _, row := range q.Rows {
				for k, off := range row {
					if off >= 0 && q.W[f][k] != 0 {
						n++
					}
				}
			}
		}
		return n
	case *QAffine:
		return in.Size()
	default:
		return 0
	}
}
