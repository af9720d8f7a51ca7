package qnn

import (
	"fmt"
	"math"
	"math/big"

	"ppstream/internal/nn"
	"ppstream/internal/paillier"
	"ppstream/internal/tensor"
)

// QFC is the quantized fully-connected layer.
type QFC struct {
	name string
	W    [][]int32  // [out][in], weights at scale F
	B    []*big.Int // [out], biases at the output scale, nil for zero
}

func quantizeFC(l *nn.FC, qz *quantizer) *QFC {
	return &QFC{name: l.Name(), W: qz.matrix(l.W.Data(), l.Out(), l.In()), B: qz.biases(l.B.Data())}
}

// Name implements Op.
func (q *QFC) Name() string { return q.name }

// OutShape implements Op.
func (q *QFC) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if in.Size() != len(q.W[0]) {
		return nil, fmt.Errorf("qnn: %s expects %d inputs, got %v", q.name, len(q.W[0]), in)
	}
	return tensor.Shape{len(q.W)}, nil
}

// InputNeeds implements Op: fully-connected rows read everything.
func (q *QFC) InputNeeds(tensor.Shape, int) []int { return nil }

// KernelRows implements Op: row o is Σ_i W[o][i]·x_i + B[o], so the
// kernel computes Π E(x_i)^{W[o][i]} · E(B[o]).
func (q *QFC) KernelRows(_ tensor.Shape, lo, hi int) []paillier.Row {
	rows := make([]paillier.Row, hi-lo)
	for i := range rows {
		rows[i] = paillier.Row{W: q.W[lo+i], Bias: q.B[lo+i]}
	}
	return rows
}

// Bound implements Op: the worst row.
func (q *QFC) Bound(in *big.Int) *big.Int {
	return worstRowBound(q.W, q.B, in)
}

// ApplyPlain implements Op over big integers.
func (q *QFC) ApplyPlain(x *tensor.Tensor[*big.Int]) (*tensor.Tensor[*big.Int], error) {
	xs := x.Flatten().Data()
	if len(xs) != len(q.W[0]) {
		return nil, fmt.Errorf("qnn: %s expects %d inputs, got %d", q.name, len(q.W[0]), len(xs))
	}
	out := tensor.New[*big.Int](len(q.W))
	t, wb := new(big.Int), new(big.Int)
	for o := range q.W {
		acc := biasOrZero(q.B[o])
		for i, w := range q.W[o] {
			if w == 0 {
				continue
			}
			acc.Add(acc, t.Mul(xs[i], wb.SetInt64(int64(w))))
		}
		out.SetFlat(o, acc)
	}
	return out, nil
}

// QConv is the quantized convolution layer. The im2col gather indices are
// precomputed, so applying the layer is pure index gathering plus
// homomorphic dot products — each output element reads exactly one input
// sub-tensor, which is what makes the paper's input tensor partitioning
// possible (Section IV-D).
type QConv struct {
	name string
	P    tensor.ConvParams
	W    [][]int32  // [outC][rowLen], filters at scale F
	B    []*big.Int // [outC], biases at the output scale, nil for zero
	// Rows[pos] lists the flat input offsets forming output position
	// pos's receptive field; -1 marks padding (contributes zero).
	Rows [][]int32
}

func quantizeConv(l *nn.Conv, qz *quantizer) *QConv {
	p := l.P
	// A filter's weights, in (channel, row, column) order, are one row.
	w := qz.matrix(l.W.Data(), p.OutC, p.InC*p.KH*p.KW)
	return &QConv{name: l.Name(), P: p, W: w, B: qz.biases(l.B.Data()), Rows: GatherRows(p)}
}

// GatherRows computes, for every output spatial position of a
// convolution, the flat input offsets of its receptive field (-1 for
// padded positions). This is the index form of Im2Col and the basis of
// input tensor partitioning. The offsets are int32, as wide as the weights
// they pair with: no input a round frame can carry comes near 2^31
// elements.
func GatherRows(p tensor.ConvParams) [][]int32 {
	oh, ow := p.OutH(), p.OutW()
	rowLen := p.InC * p.KH * p.KW
	rows := make([][]int32, oh*ow)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := make([]int32, rowLen)
			k := 0
			for c := 0; c < p.InC; c++ {
				for ky := 0; ky < p.KH; ky++ {
					iy := oy*p.Stride + ky - p.Pad
					for kx := 0; kx < p.KW; kx++ {
						ix := ox*p.Stride + kx - p.Pad
						if iy >= 0 && iy < p.InH && ix >= 0 && ix < p.InW {
							row[k] = int32((c*p.InH+iy)*p.InW + ix)
						} else {
							row[k] = -1
						}
						k++
					}
				}
			}
			rows[oy*ow+ox] = row
		}
	}
	return rows
}

// Name implements Op.
func (q *QConv) Name() string { return q.name }

// OutShape implements Op.
func (q *QConv) OutShape(in tensor.Shape) (tensor.Shape, error) {
	want := tensor.Shape{q.P.InC, q.P.InH, q.P.InW}
	if in.Size() != want.Size() {
		return nil, fmt.Errorf("qnn: %s expects input %v (size %d), got %v", q.name, want, want.Size(), in)
	}
	return tensor.Shape{q.P.OutC, q.P.OutH(), q.P.OutW()}, nil
}

// InputNeeds implements Op: a conv output element reads exactly its
// receptive field — the sub-tensor of Figure 5.
func (q *QConv) InputNeeds(_ tensor.Shape, outIdx int) []int {
	row := q.Rows[outIdx%(q.P.OutH()*q.P.OutW())]
	needs := make([]int, 0, len(row))
	for _, off := range row {
		if off >= 0 {
			needs = append(needs, int(off))
		}
	}
	return needs
}

// KernelRows implements Op: each flat output element is the row of its
// filter's non-zero weights over the in-bounds offsets of its receptive
// field (padding contributes nothing). One paillier.Rows call over a
// range of them shares whatever the kernel shares between rows across
// overlapping receptive fields too.
func (q *QConv) KernelRows(_ tensor.Shape, lo, hi int) []paillier.Row {
	positions := q.P.OutH() * q.P.OutW()
	rows := make([]paillier.Row, hi-lo)
	idx := make([]int32, 0, len(rows)*len(q.W[0]))
	weights := make([]int32, 0, cap(idx))
	for i := range rows {
		f, from := (lo+i)/positions, len(idx)
		for k, off := range q.Rows[(lo+i)%positions] {
			if off >= 0 && q.W[f][k] != 0 {
				idx = append(idx, off)
				weights = append(weights, q.W[f][k])
			}
		}
		rows[i] = paillier.Row{Idx: idx[from:], W: weights[from:], Bias: q.B[f]}
	}
	return rows
}

// Bound implements Op: the worst filter over a receptive field without
// padding (padding only drops terms).
func (q *QConv) Bound(in *big.Int) *big.Int {
	return worstRowBound(q.W, q.B, in)
}

// ApplyPlain implements Op.
func (q *QConv) ApplyPlain(x *tensor.Tensor[*big.Int]) (*tensor.Tensor[*big.Int], error) {
	xs := x.Flatten().Data()
	if len(xs) != q.P.InC*q.P.InH*q.P.InW {
		return nil, fmt.Errorf("qnn: %s expects %d inputs, got %d", q.name, q.P.InC*q.P.InH*q.P.InW, len(xs))
	}
	oh, ow := q.P.OutH(), q.P.OutW()
	out := tensor.New[*big.Int](q.P.OutC, oh, ow)
	t, wb := new(big.Int), new(big.Int)
	for f := 0; f < q.P.OutC; f++ {
		for pos := 0; pos < oh*ow; pos++ {
			acc := biasOrZero(q.B[f])
			for k, off := range q.Rows[pos] {
				if off < 0 || q.W[f][k] == 0 {
					continue
				}
				acc.Add(acc, t.Mul(xs[off], wb.SetInt64(int64(q.W[f][k]))))
			}
			out.SetFlat(f*oh*ow+pos, acc)
		}
	}
	return out, nil
}

// QAffine is the quantized element-wise affine op covering BatchNorm
// (per-channel scale and shift) and ElemScale (per-element scale, no
// shift).
type QAffine struct {
	name string
	// Scale[c] is coefficient c at scale F: one per element (ElemScale)
	// or one per channel (BatchNorm), as coeffSpan maps them.
	Scale []int32
	// Shift[c] is the shift applied alongside Scale[c], at the output
	// scale; nil for zero, as for pure scaling.
	Shift []*big.Int
}

func quantizeBatchNorm(l *nn.BatchNorm, qz *quantizer) *QAffine {
	// y = a·x + c with a = γ/√(σ²+ε), c = β − a·μ, per channel. Which
	// elements share a channel follows from the input's shape (coeffSpan).
	a := make([]int32, l.Channels)
	c := make([]float64, l.Channels)
	for ch := 0; ch < l.Channels; ch++ {
		inv := 1 / math.Sqrt(l.Var.At(ch)+l.Eps)
		af := l.Gamma.At(ch) * inv
		a[ch] = qz.weight(af)
		c[ch] = l.Beta.At(ch) - af*l.Mean.At(ch)
	}
	return &QAffine{name: l.Name(), Scale: a, Shift: qz.biases(c)}
}

func quantizeElemScale(l *nn.ElemScale, qz *quantizer) *QAffine {
	s := qz.matrix(l.Scale.Data(), 1, l.Scale.Size())[0]
	return &QAffine{name: l.Name(), Scale: s, Shift: make([]*big.Int, len(s))}
}

// Name implements Op.
func (q *QAffine) Name() string { return q.name }

// OutShape implements Op.
func (q *QAffine) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if q.coeffSpan(in) == 0 {
		return nil, fmt.Errorf("qnn: %s cannot map %d coefficients onto shape %v", q.name, len(q.Scale), in)
	}
	return in.Clone(), nil
}

// coeffSpan returns how many consecutive flat elements of an input of
// shape in share one coefficient — element i takes Scale[i/span] — or 0
// when the coefficients do not map onto the shape.
func (q *QAffine) coeffSpan(in tensor.Shape) int {
	switch {
	case len(q.Scale) == in.Size():
		return 1
	case in.Rank() == 3 && in[0] == len(q.Scale):
		return in[1] * in[2]
	default:
		return 0
	}
}

// InputNeeds implements Op: element-wise ops read one element.
func (q *QAffine) InputNeeds(_ tensor.Shape, outIdx int) []int { return []int{outIdx} }

// KernelRows implements Op: element i is the one-weight row
// Scale[c]·x_i + Shift[c] of its coefficient c.
func (q *QAffine) KernelRows(in tensor.Shape, lo, hi int) []paillier.Row {
	span := q.coeffSpan(in)
	rows := make([]paillier.Row, hi-lo)
	idx := make([]int32, len(rows))
	for i := range rows {
		c := (lo + i) / span
		idx[i] = int32(lo + i)
		rows[i] = paillier.Row{Idx: idx[i : i+1], W: q.Scale[c : c+1], Bias: q.Shift[c]}
	}
	return rows
}

// Bound implements Op: the worst coefficient pair.
func (q *QAffine) Bound(in *big.Int) *big.Int {
	worst := new(big.Int)
	for c := range q.Scale {
		if b := rowBound(q.Scale[c:c+1], q.Shift[c], in); b.Cmp(worst) > 0 {
			worst = b
		}
	}
	return worst
}

// ApplyPlain implements Op.
func (q *QAffine) ApplyPlain(x *tensor.Tensor[*big.Int]) (*tensor.Tensor[*big.Int], error) {
	shape, err := q.OutShape(x.Shape())
	if err != nil {
		return nil, err
	}
	span := q.coeffSpan(shape)
	out := tensor.New[*big.Int](shape...)
	for i, v := range x.Data() {
		c := i / span
		acc := biasOrZero(q.Shift[c])
		acc.Add(acc, new(big.Int).Mul(v, big.NewInt(int64(q.Scale[c]))))
		out.SetFlat(i, acc)
	}
	return out, nil
}

// QFlatten reshapes the encrypted tensor to rank 1 without touching the
// ciphertexts.
type QFlatten struct {
	name string
}

// Name implements Op.
func (q *QFlatten) Name() string { return q.name }

// OutShape implements Op.
func (q *QFlatten) OutShape(in tensor.Shape) (tensor.Shape, error) {
	return tensor.Shape{in.Size()}, nil
}

// InputNeeds implements Op.
func (q *QFlatten) InputNeeds(_ tensor.Shape, outIdx int) []int { return []int{outIdx} }

// KernelRows implements Op: a reshape has no rows, its elements are its
// inputs.
func (q *QFlatten) KernelRows(tensor.Shape, int, int) []paillier.Row { return nil }

// Bound implements Op: values pass through.
func (q *QFlatten) Bound(in *big.Int) *big.Int { return in }

// ApplyPlain implements Op.
func (q *QFlatten) ApplyPlain(x *tensor.Tensor[*big.Int]) (*tensor.Tensor[*big.Int], error) {
	return x.Flatten(), nil
}
