package qnn

import (
	"fmt"
	"math"
	"math/big"
	"sync"

	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/tensor"
)

// QFC is the quantized fully-connected layer.
type QFC struct {
	name string
	F    int64
	W    [][]int64 // [out][in], weights at scale F
	B    []float64 // original float biases, materialized per call
}

func quantizeFC(l *nn.FC, F int64) *QFC {
	out, in := l.Out(), l.In()
	w := make([][]int64, out)
	for o := 0; o < out; o++ {
		row := make([]int64, in)
		for i := 0; i < in; i++ {
			row[i] = roundToInt64(l.W.At(o, i), F)
		}
		w[o] = row
	}
	b := make([]float64, out)
	copy(b, l.B.Data())
	return &QFC{name: l.Name(), F: F, W: w, B: b}
}

// Name implements Op.
func (q *QFC) Name() string { return q.name }

// ScaleSteps implements Op.
func (q *QFC) ScaleSteps() int { return 1 }

// OutShape implements Op.
func (q *QFC) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if in.Size() != len(q.W[0]) {
		return nil, fmt.Errorf("qnn: %s expects %d inputs, got %v", q.name, len(q.W[0]), in)
	}
	return tensor.Shape{len(q.W)}, nil
}

// Apply implements Op: row o computes Π E(x_i)^{W[o][i]} · E(b_o·F^(exp+1)).
func (q *QFC) Apply(ev *paillier.Evaluator, x *paillier.CipherTensor, inExp, workers int) (*paillier.CipherTensor, error) {
	out := tensor.New[*paillier.Ciphertext](len(q.W))
	if err := q.rows(ev, x.Flatten().Data(), 0, len(q.W), inExp, workers, out.Data()); err != nil {
		return nil, err
	}
	return out, nil
}

// rows evaluates output rows [lo, hi) into out in one paillier.Rows call,
// which picks its strategy from those rows alone — the whole layer for
// Apply, one thread's share for ComputeRange.
func (q *QFC) rows(ev *paillier.Evaluator, xs []*paillier.Ciphertext, lo, hi, inExp, workers int, out []*paillier.Ciphertext) error {
	if len(xs) != len(q.W[0]) {
		return fmt.Errorf("qnn: %s expects %d inputs, got %d", q.name, len(q.W[0]), len(xs))
	}
	cts, err := ev.Rows(xs, q.kernelRows(lo, hi, inExp), workers)
	if err != nil {
		return fmt.Errorf("qnn: %s rows [%d,%d): %w", q.name, lo, hi, err)
	}
	copy(out, cts)
	return nil
}

// kernelRows returns output rows [lo, hi) the way the kernel takes them.
func (q *QFC) kernelRows(lo, hi, inExp int) []paillier.Row {
	rows := make([]paillier.Row, hi-lo)
	for i := range rows {
		rows[i].W = q.W[lo+i]
		if b := q.B[lo+i]; b != 0 {
			rows[i].Bias = biasAt(b, q.F, inExp+1)
		}
	}
	return rows
}

// Bound implements Op: the worst row.
func (q *QFC) Bound(in *big.Int, inExp int) *big.Int {
	return worstRowBound(q.W, q.B, q.F, in, inExp)
}

// ApplyPlain implements Op over big integers.
func (q *QFC) ApplyPlain(x *tensor.Tensor[*big.Int], inExp int) (*tensor.Tensor[*big.Int], error) {
	xs := x.Flatten().Data()
	if len(xs) != len(q.W[0]) {
		return nil, fmt.Errorf("qnn: %s expects %d inputs, got %d", q.name, len(q.W[0]), len(xs))
	}
	out := tensor.New[*big.Int](len(q.W))
	for o := range q.W {
		acc := biasAt(q.B[o], q.F, inExp+1)
		t := new(big.Int)
		for i, w := range q.W[o] {
			if w == 0 {
				continue
			}
			acc.Add(acc, t.Mul(xs[i], big.NewInt(w)))
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
	F    int64
	P    tensor.ConvParams
	W    [][]int64 // [outC][rowLen], filters at scale F
	B    []float64
	// Rows[pos] lists the flat input offsets forming output position
	// pos's receptive field; -1 marks padding (contributes zero).
	Rows [][]int
}

func quantizeConv(l *nn.Conv, F int64) *QConv {
	p := l.P
	rowLen := p.InC * p.KH * p.KW
	w := make([][]int64, p.OutC)
	for f := 0; f < p.OutC; f++ {
		row := make([]int64, rowLen)
		k := 0
		for c := 0; c < p.InC; c++ {
			for ky := 0; ky < p.KH; ky++ {
				for kx := 0; kx < p.KW; kx++ {
					row[k] = roundToInt64(l.W.At(f, c, ky, kx), F)
					k++
				}
			}
		}
		w[f] = row
	}
	b := make([]float64, p.OutC)
	copy(b, l.B.Data())
	return &QConv{name: l.Name(), F: F, P: p, W: w, B: b, Rows: GatherRows(p)}
}

// GatherRows computes, for every output spatial position of a
// convolution, the flat input offsets of its receptive field (-1 for
// padded positions). This is the index form of Im2Col and the basis of
// input tensor partitioning.
func GatherRows(p tensor.ConvParams) [][]int {
	oh, ow := p.OutH(), p.OutW()
	rowLen := p.InC * p.KH * p.KW
	rows := make([][]int, oh*ow)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := make([]int, rowLen)
			k := 0
			for c := 0; c < p.InC; c++ {
				for ky := 0; ky < p.KH; ky++ {
					iy := oy*p.Stride + ky - p.Pad
					for kx := 0; kx < p.KW; kx++ {
						ix := ox*p.Stride + kx - p.Pad
						if iy >= 0 && iy < p.InH && ix >= 0 && ix < p.InW {
							row[k] = (c*p.InH+iy)*p.InW + ix
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

// ScaleSteps implements Op.
func (q *QConv) ScaleSteps() int { return 1 }

// OutShape implements Op.
func (q *QConv) OutShape(in tensor.Shape) (tensor.Shape, error) {
	want := tensor.Shape{q.P.InC, q.P.InH, q.P.InW}
	if in.Size() != want.Size() {
		return nil, fmt.Errorf("qnn: %s expects input %v (size %d), got %v", q.name, want, want.Size(), in)
	}
	return tensor.Shape{q.P.OutC, q.P.OutH(), q.P.OutW()}, nil
}

// Apply implements Op: one paillier.Rows call over the input tensor serves
// every (filter, position) output element, so whatever it shares between
// rows is shared across overlapping receptive fields too.
func (q *QConv) Apply(ev *paillier.Evaluator, x *paillier.CipherTensor, inExp, workers int) (*paillier.CipherTensor, error) {
	out := tensor.New[*paillier.Ciphertext](q.P.OutC, q.P.OutH(), q.P.OutW())
	if err := q.elements(ev, x.Flatten().Data(), 0, out.Size(), inExp, workers, out.Data()); err != nil {
		return nil, err
	}
	return out, nil
}

// elements evaluates flat output elements [lo, hi) into out in one
// paillier.Rows call, which picks its strategy from those elements alone —
// the whole layer for Apply, one thread's share for ComputeRange (xs is
// then nil outside the share's receptive fields).
func (q *QConv) elements(ev *paillier.Evaluator, xs []*paillier.Ciphertext, lo, hi, inExp, workers int, out []*paillier.Ciphertext) error {
	if len(xs) != q.P.InC*q.P.InH*q.P.InW {
		return fmt.Errorf("qnn: %s expects %d inputs, got %d", q.name, q.P.InC*q.P.InH*q.P.InW, len(xs))
	}
	cts, err := ev.Rows(xs, q.kernelRows(lo, hi, inExp), workers)
	if err != nil {
		return fmt.Errorf("qnn: %s elements [%d,%d): %w", q.name, lo, hi, err)
	}
	copy(out, cts)
	return nil
}

// kernelRows returns flat output elements [lo, hi) the way the kernel
// takes them: each is the row of its filter's non-zero weights over the
// in-bounds offsets of its receptive field (padding contributes nothing).
func (q *QConv) kernelRows(lo, hi, inExp int) []paillier.Row {
	positions := q.P.OutH() * q.P.OutW()
	bias := make([]*big.Int, len(q.B))
	for f, b := range q.B {
		if b != 0 {
			bias[f] = biasAt(b, q.F, inExp+1)
		}
	}
	rows := make([]paillier.Row, hi-lo)
	idx := make([]int, 0, len(rows)*len(q.W[0]))
	weights := make([]int64, 0, cap(idx))
	for i := range rows {
		f, from := (lo+i)/positions, len(idx)
		for k, off := range q.Rows[(lo+i)%positions] {
			if off >= 0 && q.W[f][k] != 0 {
				idx = append(idx, off)
				weights = append(weights, q.W[f][k])
			}
		}
		rows[i] = paillier.Row{Idx: idx[from:], W: weights[from:], Bias: bias[f]}
	}
	return rows
}

// Bound implements Op: the worst filter over a receptive field without
// padding (padding only drops terms).
func (q *QConv) Bound(in *big.Int, inExp int) *big.Int {
	return worstRowBound(q.W, q.B, q.F, in, inExp)
}

// ApplyPlain implements Op.
func (q *QConv) ApplyPlain(x *tensor.Tensor[*big.Int], inExp int) (*tensor.Tensor[*big.Int], error) {
	xs := x.Flatten().Data()
	if len(xs) != q.P.InC*q.P.InH*q.P.InW {
		return nil, fmt.Errorf("qnn: %s expects %d inputs, got %d", q.name, q.P.InC*q.P.InH*q.P.InW, len(xs))
	}
	oh, ow := q.P.OutH(), q.P.OutW()
	out := tensor.New[*big.Int](q.P.OutC, oh, ow)
	t := new(big.Int)
	for f := 0; f < q.P.OutC; f++ {
		for pos := 0; pos < oh*ow; pos++ {
			acc := biasAt(q.B[f], q.F, inExp+1)
			for k, off := range q.Rows[pos] {
				if off < 0 || q.W[f][k] == 0 {
					continue
				}
				acc.Add(acc, t.Mul(xs[off], big.NewInt(q.W[f][k])))
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
	F    int64
	// Scale[i] applies to element i (expanded per element at build
	// time), at scale F.
	Scale []int64
	// Shift[i] is the float shift applied to element i (may be nil for
	// pure scaling).
	Shift []float64
	shape tensor.Shape
}

func quantizeBatchNorm(l *nn.BatchNorm, F int64) *QAffine {
	// y = a·x + c with a = γ/√(σ²+ε), c = β − a·μ, per channel. The
	// per-element expansion happens lazily in Apply since the spatial
	// size is known from the input.
	a := make([]int64, l.Channels)
	c := make([]float64, l.Channels)
	for ch := 0; ch < l.Channels; ch++ {
		inv := 1 / math.Sqrt(l.Var.At(ch)+l.Eps)
		af := l.Gamma.At(ch) * inv
		a[ch] = roundToInt64(af, F)
		c[ch] = l.Beta.At(ch) - af*l.Mean.At(ch)
	}
	return &QAffine{name: l.Name(), F: F, Scale: a, Shift: c}
}

func quantizeElemScale(l *nn.ElemScale, F int64) *QAffine {
	s := make([]int64, l.Scale.Size())
	for i, v := range l.Scale.Data() {
		s[i] = roundToInt64(v, F)
	}
	return &QAffine{name: l.Name(), F: F, Scale: s, Shift: nil, shape: l.Scale.Shape().Clone()}
}

// Name implements Op.
func (q *QAffine) Name() string { return q.name }

// ScaleSteps implements Op.
func (q *QAffine) ScaleSteps() int { return 1 }

// OutShape implements Op.
func (q *QAffine) OutShape(in tensor.Shape) (tensor.Shape, error) {
	if _, err := q.coeffIndex(in); err != nil {
		return nil, err
	}
	return in.Clone(), nil
}

// coeffIndex returns a function mapping flat element offsets to indices
// into Scale/Shift for the given input shape.
func (q *QAffine) coeffIndex(in tensor.Shape) (func(int) int, error) {
	switch {
	case len(q.Scale) == in.Size():
		return func(i int) int { return i }, nil
	case in.Rank() == 3 && in[0] == len(q.Scale):
		per := in[1] * in[2]
		return func(i int) int { return i / per }, nil
	case in.Rank() == 1 && in[0] == len(q.Scale):
		return func(i int) int { return i }, nil
	default:
		return nil, fmt.Errorf("qnn: %s cannot map %d coefficients onto shape %v", q.name, len(q.Scale), in)
	}
}

// Apply implements Op: element i becomes E(x_i)^{Scale[c]}·E(Shift[c]).
func (q *QAffine) Apply(ev *paillier.Evaluator, x *paillier.CipherTensor, inExp, workers int) (*paillier.CipherTensor, error) {
	idx, err := q.coeffIndex(x.Shape())
	if err != nil {
		return nil, err
	}
	out := tensor.New[*paillier.Ciphertext](x.Shape()...)
	xd, od := x.Data(), out.Data()
	var mu sync.Mutex
	var firstErr error
	parallelRange(len(xd), workers, func(i int) {
		ct, err := q.element(ev, xd[i], idx(i), inExp)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		od[i] = ct
	})
	if firstErr != nil {
		return nil, firstErr
	}
	ev.CostMeter().Add(q.cost(idx, 0, len(xd)))
	return out, nil
}

// element computes E(x)^{Scale[c]}·E(Shift[c]) for coefficient index c.
func (q *QAffine) element(ev *paillier.Evaluator, x *paillier.Ciphertext, c, inExp int) (*paillier.Ciphertext, error) {
	pk := ev.PublicKey()
	ct, err := pk.MulScalarInt64(x, q.Scale[c])
	if err != nil {
		return nil, err
	}
	if q.Shift != nil && q.Shift[c] != 0 {
		return pk.AddPlain(ct, biasAt(q.Shift[c], q.F, inExp+1))
	}
	return ct, nil
}

// cost is what elements [lo, hi) cost, deterministic per element: one
// scalar exponentiation, an inverse for negative scales, one mulmod per
// non-zero shift.
func (q *QAffine) cost(idx func(int) int, lo, hi int) obs.CostStats {
	var st obs.CostStats
	for i := lo; i < hi; i++ {
		c := idx(i)
		st.ModExps++
		if q.Scale[c] < 0 {
			st.ModInverses++
		}
		if q.Shift != nil && q.Shift[c] != 0 {
			st.MulMods++
		}
	}
	return st
}

// Bound implements Op: the worst coefficient pair.
func (q *QAffine) Bound(in *big.Int, inExp int) *big.Int {
	worst := new(big.Int)
	for c := range q.Scale {
		var shift float64
		if q.Shift != nil {
			shift = q.Shift[c]
		}
		if b := rowBound(q.Scale[c:c+1], shift, q.F, in, inExp); b.Cmp(worst) > 0 {
			worst = b
		}
	}
	return worst
}

// ApplyPlain implements Op.
func (q *QAffine) ApplyPlain(x *tensor.Tensor[*big.Int], inExp int) (*tensor.Tensor[*big.Int], error) {
	idx, err := q.coeffIndex(x.Shape())
	if err != nil {
		return nil, err
	}
	out := tensor.New[*big.Int](x.Shape()...)
	for i, v := range x.Data() {
		c := idx(i)
		acc := new(big.Int).Mul(v, big.NewInt(q.Scale[c]))
		if q.Shift != nil && q.Shift[c] != 0 {
			acc.Add(acc, biasAt(q.Shift[c], q.F, inExp+1))
		}
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

// ScaleSteps implements Op.
func (q *QFlatten) ScaleSteps() int { return 0 }

// OutShape implements Op.
func (q *QFlatten) OutShape(in tensor.Shape) (tensor.Shape, error) {
	return tensor.Shape{in.Size()}, nil
}

// Apply implements Op.
func (q *QFlatten) Apply(_ *paillier.Evaluator, x *paillier.CipherTensor, _, _ int) (*paillier.CipherTensor, error) {
	return x.Flatten(), nil
}

// Bound implements Op: values pass through.
func (q *QFlatten) Bound(in *big.Int, _ int) *big.Int { return in }

// ApplyPlain implements Op.
func (q *QFlatten) ApplyPlain(x *tensor.Tensor[*big.Int], _ int) (*tensor.Tensor[*big.Int], error) {
	return x.Flatten(), nil
}

// parallelRange runs f(i) for i in [0,n) over up to workers goroutines.
func parallelRange(n, workers int, f func(int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
