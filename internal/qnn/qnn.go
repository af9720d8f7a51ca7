// Package qnn holds the quantized, homomorphically-executable form of a
// network's linear layers. After parameter scaling (internal/scaling)
// selects F = 10^f, each linear layer's weights become int32s ≈ w·F and
// the layer evaluates over Paillier ciphertexts on the model provider.
//
// Scale-exponent bookkeeping: the data provider encrypts every round's
// input at scale F¹ (x_int = round(x·F)). Every parameterized linear op
// multiplies by weights at scale F, raising the result's exponent by one,
// so QuantizeStage fixes each op's biases once, at its output exponent.
// The data provider divides by F^exp after decryption, applies the
// non-linear functions in plaintext, and re-scales to F¹. Paillier
// plaintexts are big integers, so growing magnitudes stay exact as long
// as they remain below n/2 — Walk bounds every stage's outputs and the
// protocol refuses a key too small for them at Build.
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

// Op is a quantized linear operation evaluated over ciphertexts.
type Op interface {
	// Name identifies the op, matching the source layer's name.
	Name() string
	// OutShape computes the output tensor shape.
	OutShape(in tensor.Shape) (tensor.Shape, error)
	// InputNeeds lists the flat input offsets that output element outIdx
	// reads over an input of shape in; nil means the whole input (a
	// fully-connected row). It is what tensor partitioning accounts
	// (Section IV-D): a thread on another server would be sent the union
	// of its elements' needs.
	InputNeeds(in tensor.Shape, outIdx int) []int
	// KernelRows returns flat output elements [lo, hi) over an input of
	// shape in as the kernel takes them: element lo+i is
	// Σ_j W[j]·x[Idx[j]] + Bias of row i. It is the one statement of the
	// op's arithmetic: ApplyRange hands it to paillier.Evaluator.Rows,
	// ApplyStageShared to Beaver dot products, and MulCount and StageCost
	// count it. in is a shape OutShape accepts. A structural op returns
	// nil: its elements are its inputs.
	KernelRows(in tensor.Shape, lo, hi int) []paillier.Row
	// ApplyPlain evaluates the same arithmetic over plaintext big
	// integers, written out apart from KernelRows: it is the clear
	// backend, and the independent reference the differential tests hold
	// the ciphertext and shared paths to, bit for bit.
	ApplyPlain(x *tensor.Tensor[*big.Int]) (*tensor.Tensor[*big.Int], error)
	// Bound returns the largest magnitude any output element can take
	// when every input element's magnitude is at most in. It is sound for
	// every input, not only typical ones: the reply's slot width is
	// derived from it (Walk).
	Bound(in *big.Int) *big.Int
}

// Quantize converts a linear nn layer over an input at scale F¹ into its
// homomorphic form, or refuses it with a *WeightRangeError.
func Quantize(l nn.Layer, F int64) (Op, error) {
	return quantize(l, &quantizer{stage: l.Name(), F: F, exp: 1})
}

func quantize(l nn.Layer, qz *quantizer) (Op, error) {
	if qz.F <= 0 {
		return nil, fmt.Errorf("qnn: scaling factor must be positive, got %d", qz.F)
	}
	var op Op
	switch v := l.(type) {
	case *nn.FC:
		op = quantizeFC(v, qz)
	case *nn.Conv:
		op = quantizeConv(v, qz)
	case *nn.BatchNorm:
		op = quantizeBatchNorm(v, qz)
	case *nn.ElemScale:
		op = quantizeElemScale(v, qz)
	case *nn.Flatten:
		op = &QFlatten{name: v.Name()}
	default:
		return nil, fmt.Errorf("qnn: layer %s (%T) is not a supported linear layer", l.Name(), l)
	}
	if qz.err != nil {
		return nil, qz.err
	}
	return op, nil
}

// QuantizeStage converts a merged linear primitive layer over an input at
// scale F¹ into its op sequence, or refuses it with a *WeightRangeError
// naming the stage.
func QuantizeStage(p *nn.PrimitiveLayer, F int64) ([]Op, error) {
	if p.Kind != nn.Linear {
		return nil, fmt.Errorf("qnn: stage %s is %v, want linear", p.Name(), p.Kind)
	}
	qz := &quantizer{stage: p.Name(), F: F}
	ops := make([]Op, len(p.Layers))
	for i, l := range p.Layers {
		qz.exp = 1 + ScaleSteps(p.Layers[:i])
		op, err := quantize(l, qz)
		if err != nil {
			return nil, err
		}
		ops[i] = op
	}
	return ops, nil
}

// ScaleSteps returns how many powers of F a linear stage's layers multiply
// into its input's scale: one per weighted layer, none for a reshape. It
// reads only the layers' kinds, never a weight, so a stage's reply
// exponent, 1 + ScaleSteps, is public: both protocol roles take it from
// the architecture.
func ScaleSteps(layers []nn.Layer) int {
	steps := 0
	for _, l := range layers {
		if _, reshape := l.(*nn.Flatten); !reshape {
			steps++
		}
	}
	return steps
}

// WeightRangeError refuses a linear stage holding a weight whose w·F, at
// Factor, does not fit the int32 every served weight is held in, or a NaN
// or infinite bias, which no integer holds.
type WeightRangeError struct {
	Stage  string
	Weight float64
	Factor int64
}

func (e *WeightRangeError) Error() string {
	return fmt.Sprintf("qnn: %s: weight %g at factor %d does not fit an int32 once scaled", e.Stage, e.Weight, e.Factor)
}

// quantizer rounds one stage's weights to w·F, and the biases of its op
// at input exponent exp to that op's output scale, and keeps the first
// parameter it refuses.
type quantizer struct {
	stage string
	F     int64
	exp   int
	err   error
}

func (qz *quantizer) weight(w float64) int32 {
	v := math.Round(w * float64(qz.F))
	if v >= math.MinInt32 && v <= math.MaxInt32 {
		return int32(v)
	}
	qz.refuse(w)
	return 0
}

func (qz *quantizer) refuse(p float64) {
	if qz.err == nil {
		qz.err = &WeightRangeError{Stage: qz.stage, Weight: p, Factor: qz.F}
	}
}

// matrix quantizes the row-major ws into a rows×cols matrix over one
// backing array.
func (qz *quantizer) matrix(ws []float64, rows, cols int) [][]int32 {
	flat, m := make([]int32, len(ws)), make([][]int32, rows)
	for i, w := range ws {
		flat[i] = qz.weight(w)
	}
	for r := range m {
		m[r] = flat[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return m
}

// biases materializes the op's float biases as integers at its output
// scale F^(exp+1), nil for a zero bias.
func (qz *quantizer) biases(bs []float64) []*big.Int {
	scale := new(big.Float).SetInt(powF(qz.F, qz.exp+1))
	out := make([]*big.Int, len(bs))
	for i, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			qz.refuse(b)
		} else if b != 0 {
			bf := new(big.Float).SetFloat64(b)
			out[i], _ = bf.Mul(bf, scale).Int(nil)
		}
	}
	return out
}

// ApplyStage runs a stage's ops in sequence over ciphertexts. It is the
// one place a stage is split across its threads: each op's outputs are
// cut by SplitOutputs, the same split StageComm accounts, and every share
// is one ApplyRange call over the whole input — on the caller's goroutine
// at one thread, concurrently otherwise.
func ApplyStage(ev *paillier.Evaluator, ops []Op, x *paillier.CipherTensor, threads int) (_ *paillier.CipherTensor, err error) {
	for _, op := range ops {
		if x, err = applyOp(ev, op, x, threads); err != nil {
			return nil, fmt.Errorf("qnn: applying %s: %w", op.Name(), err)
		}
	}
	return x, nil
}

// applyOp evaluates one op's outputs split over threads; the first
// share's error, in output order, wins.
func applyOp(ev *paillier.Evaluator, op Op, x *paillier.CipherTensor, threads int) (*paillier.CipherTensor, error) {
	in := x.Shape()
	shape, err := op.OutShape(in)
	if err != nil {
		return nil, err
	}
	out := tensor.New[*paillier.Ciphertext](shape...)
	xs, od := x.Data(), out.Data()
	ranges := SplitOutputs(len(od), threads)
	if len(ranges) <= 1 {
		return out, ApplyRange(ev, op, xs, in, 0, len(od), od)
	}
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = ApplyRange(ev, op, xs, in, r.Lo, r.Hi, od[r.Lo:r.Hi])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ApplyRange evaluates the op's flat output elements [lo, hi) into out,
// which has hi−lo entries, over the flat input xs of shape in, a shape
// the op's OutShape accepts (ApplyStage checks it):
// the op's KernelRows in ONE paillier.Evaluator.Rows call, so
// what the kernel shares between rows (power tables, the batched
// inversion) is paid once per range. A structural op's elements are its
// inputs. The elements are NOT re-randomized: they may feed the stage's
// next op, but only paillier.Evaluator.Pack may hand them to the data
// provider.
func ApplyRange(ev *paillier.Evaluator, op Op, xs []*paillier.Ciphertext, in tensor.Shape, lo, hi int, out []*paillier.Ciphertext) error {
	rows := op.KernelRows(in, lo, hi)
	if rows == nil {
		copy(out, xs[lo:hi])
		return nil
	}
	cts, err := ev.Rows(xs, rows)
	if err != nil {
		return fmt.Errorf("qnn: %s elements [%d,%d): %w", op.Name(), lo, hi, err)
	}
	copy(out, cts)
	return nil
}

// Range is a half-open interval of an op's flat output elements: one
// thread's share.
type Range struct {
	Lo, Hi int
}

// SplitOutputs evenly partitions n output elements over t threads
// (output tensor partitioning, Section IV-D); the first n%t threads
// receive one extra element. Empty ranges are omitted, so at most
// min(n,t) ranges return.
func SplitOutputs(n, t int) []Range {
	if n <= 0 || t <= 0 {
		return nil
	}
	t = min(t, n)
	base, extra := n/t, n%t
	out := make([]Range, t)
	lo := 0
	for i := range out {
		size := base
		if i < extra {
			size++
		}
		out[i] = Range{Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}

// stageRows calls f with each op of the stage, its input shape and its
// rows over every output element, from an input of shape in — what
// ApplyStage evaluates at one thread.
func stageRows(ops []Op, in tensor.Shape, f func(op Op, in tensor.Shape, rows []paillier.Row) error) error {
	for _, op := range ops {
		out, err := op.OutShape(in)
		if err != nil {
			return err
		}
		if err := f(op, in, op.KernelRows(in, 0, out.Size())); err != nil {
			return err
		}
		in = out
	}
	return nil
}

// StageCost returns the crypto-op counts ApplyStage meters at one thread
// for the ops over an input of shape in — one paillier.Rows
// call per op that has rows — from the weights and shapes alone, without
// a ciphertext.
func StageCost(ops []Op, in tensor.Shape) (obs.CostStats, error) {
	var st obs.CostStats
	err := stageRows(ops, in, func(op Op, in tensor.Shape, rows []paillier.Row) error {
		plan, err := paillier.CountRows(in.Size(), rows)
		if err != nil {
			return fmt.Errorf("qnn: counting %s: %w", op.Name(), err)
		}
		st.MulMods += plan.MulMods
		st.ModInverses += plan.ModInverses
		return nil
	})
	return st, err
}

// MulCount returns the non-zero weight multiplications of the stage's ops
// over an input of shape in — the size term of the ss-gc and clear
// backends' counts: one Beaver triple, or one plain multiply-accumulate,
// each.
func MulCount(ops []Op, in tensor.Shape) (uint64, error) {
	var n uint64
	err := stageRows(ops, in, func(_ Op, _ tensor.Shape, rows []paillier.Row) error {
		for _, r := range rows {
			for _, w := range r.W {
				if w != 0 {
					n++
				}
			}
		}
		return nil
	})
	return n, err
}

// ApplyStagePlain is ApplyStage over plaintext big integers.
func ApplyStagePlain(ops []Op, x *tensor.Tensor[*big.Int]) (_ *tensor.Tensor[*big.Int], err error) {
	for _, op := range ops {
		if x, err = op.ApplyPlain(x); err != nil {
			return nil, fmt.Errorf("qnn: applying %s (plain): %w", op.Name(), err)
		}
	}
	return x, nil
}

// int64Bound is the largest magnitude an encrypted activation can have:
// the data provider encrypts int64 values (ScaleInput), so |x| ≤ 2^63.
// The chain of input bounds saturates here.
var int64Bound = new(big.Int).Lsh(big.NewInt(1), 63)

// StageBound returns the largest magnitude any output element of the
// stage can take when every input element's magnitude is at most in.
func StageBound(ops []Op, in *big.Int) *big.Int {
	for _, op := range ops {
		in = op.Bound(in)
	}
	return in
}

// Stage is one linear stage as Walk leaves it: its quantized ops and the
// magnitude bounds that hold for every input the network's declared
// domain admits.
type Stage struct {
	Ops []Op
	// In bounds the stage's input elements and Out its output elements,
	// as integers at scale F¹ and F^(1+ScaleSteps) of the stage's layers.
	In, Out *big.Int
}

// SlotBits is the reply slot width W the stage's outputs need: one bit
// more than the bound's length, so that value + 2^(W−1) lies in (0, 2^W)
// for every value the stage can produce.
func (s Stage) SlotBits() int { return 1 + s.Out.BitLen() }

// Walk quantizes every linear stage of the merged network at F and chains
// the magnitude bound through it: round 0 starts from the declared input
// domain |x| ≤ inputMax in real units (0 = undeclared: anything ScaleInput
// can represent, 2^63), each linear stage maps its input bound to
// StageBound, and the next round starts from that bound descaled, pushed
// through the element-wise layers between the two stages and rescaled the
// way the data provider does it (scaledBound). It is the one derivation of
// the slot widths the model provider and the planners use.
func Walk(merged []*nn.PrimitiveLayer, inputMax float64, F int64) ([]Stage, error) {
	in := int64Bound
	if inputMax > 0 {
		in = scaledBound(inputMax, F)
	}
	var stages []Stage
	// div is the last linear stage's output scale, F^(1+ScaleSteps).
	var div *big.Float
	for _, m := range merged {
		if m.Kind != nn.Linear {
			if n := len(stages); n > 0 {
				real := descale(stages[n-1].Out, div)
				in = scaledBound(nn.ElementWiseBound(m.Layers, real), F)
			}
			continue
		}
		ops, err := QuantizeStage(m, F)
		if err != nil {
			return nil, err
		}
		stages = append(stages, Stage{Ops: ops, In: in, Out: StageBound(ops, in)})
		div = new(big.Float).SetInt(powF(F, 1+ScaleSteps(m.Layers)))
	}
	return stages, nil
}

// scaledBound bounds |ScaleInput(x)| over |x| ≤ real: s = ⌈real·F⌉, plus
// what the data provider's float arithmetic can add on the way from the
// exact bound to the integer it encrypts — math.Round's half and Sigmoid's
// last-place wobble (the +1), and the roundings of Descale and of the
// product, under 2⁻⁴⁹ relative together (the s≫49, zero below 2⁴⁹) —
// saturating at what an int64 holds.
func scaledBound(real float64, F int64) *big.Int {
	s := math.Ceil(real * float64(F))
	if !(s < 0x1p62) {
		return int64Bound
	}
	return big.NewInt(int64(s) + 1 + int64(s)>>49)
}

// rowBound bounds |Σ_i w_i·x_i + bias| over |x_i| ≤ in: the row's L1
// norm times in, plus the bias's magnitude.
func rowBound(ws []int32, bias *big.Int, in *big.Int) *big.Int {
	l1, t := new(big.Int), new(big.Int)
	for _, w := range ws {
		l1.Add(l1, t.Abs(t.SetInt64(int64(w))))
	}
	l1.Mul(l1, in)
	if bias != nil {
		l1.Add(l1, t.Abs(bias))
	}
	return l1
}

// worstRowBound is the largest rowBound over the rows of w, each with its
// own bias.
func worstRowBound(w [][]int32, bias []*big.Int, in *big.Int) *big.Int {
	worst := new(big.Int)
	for o, row := range w {
		if b := rowBound(row, bias[o], in); b.Cmp(worst) > 0 {
			worst = b
		}
	}
	return worst
}

// ScaleInput converts a float tensor to the integer representation at
// scale F (exponent 1): round(x·F).
func ScaleInput(x *tensor.Dense, F int64) *tensor.Tensor[int64] {
	return tensor.Map(x, func(v float64) int64 {
		return int64(math.Round(v * float64(F)))
	})
}

// Descale converts a big-integer tensor at scale F^exp back to floats.
func Descale(x *tensor.Tensor[*big.Int], F int64, exp int) (*tensor.Dense, error) {
	if exp < 0 {
		return nil, fmt.Errorf("qnn: negative scale exponent %d", exp)
	}
	div := new(big.Float).SetInt(powF(F, exp))
	out := tensor.Zeros(x.Shape()...)
	od := out.Data()
	for i, v := range x.Data() {
		if v == nil {
			return nil, fmt.Errorf("qnn: nil value at offset %d", i)
		}
		od[i] = descale(v, div)
	}
	return out, nil
}

// descale returns v/div as the nearest float64.
func descale(v *big.Int, div *big.Float) float64 {
	f, _ := new(big.Float).Quo(new(big.Float).SetInt(v), div).Float64()
	return f
}

func powF(F int64, exp int) *big.Int {
	out := big.NewInt(1)
	f := big.NewInt(F)
	for i := 0; i < exp; i++ {
		out.Mul(out, f)
	}
	return out
}

// biasOrZero returns a fresh copy of a stored bias, zero for nil: what a
// plaintext output element accumulates onto.
func biasOrZero(b *big.Int) *big.Int {
	if b == nil {
		return new(big.Int)
	}
	return new(big.Int).Set(b)
}
