// Package qnn holds the quantized, homomorphically-executable form of a
// network's linear layers. After parameter scaling (internal/scaling)
// selects F = 10^f, each linear layer's weights become integers ≈ w·F and
// the layer evaluates over Paillier ciphertexts on the model provider.
//
// Scale-exponent bookkeeping: the data provider encrypts activations at
// scale F¹ (x_int = round(x·F)). Every parameterized linear op multiplies
// by weights at scale F, raising the result's exponent by one; biases are
// materialized at the output exponent. The data provider divides by
// F^exp after decryption to recover real values, applies the non-linear
// functions in plaintext, and re-scales to F¹ for the next round. Paillier
// plaintexts are big integers, so growing magnitudes stay exact as long
// as they remain below n/2 — Walk bounds every stage's outputs and the
// protocol refuses a key too small for them at Build.
package qnn

import (
	"fmt"
	"math"
	"math/big"

	"ppstream/internal/nn"
	"ppstream/internal/paillier"
	"ppstream/internal/tensor"
)

// Op is a quantized linear operation evaluated over ciphertexts.
type Op interface {
	// Name identifies the op, matching the source layer's name.
	Name() string
	// OutShape computes the output tensor shape.
	OutShape(in tensor.Shape) (tensor.Shape, error)
	// ScaleSteps reports how many powers of F the op multiplies into the
	// result (1 for parameterized ops, 0 for structural ones).
	ScaleSteps() int
	// Apply evaluates the op over an encrypted tensor whose plaintexts
	// are at scale F^inExp, using up to workers goroutines, and returns
	// the encrypted result at scale F^(inExp+ScaleSteps()). The result
	// is NOT re-randomized: it may feed the stage's next op, but only
	// paillier.Evaluator.Pack may hand it to the data provider.
	Apply(ev *paillier.Evaluator, x *paillier.CipherTensor, inExp int, workers int) (*paillier.CipherTensor, error)
	// ApplyPlain evaluates the same arithmetic over plaintext big
	// integers; CipherBase/PlainBase baselines and tests use it to check
	// the ciphertext path bit-for-bit.
	ApplyPlain(x *tensor.Tensor[*big.Int], inExp int) (*tensor.Tensor[*big.Int], error)
	// Bound returns the largest magnitude any output element can take
	// when every input element's magnitude is at most in, at input scale
	// F^inExp. It is sound for every input, not only typical ones: the
	// reply's slot width is derived from it (Walk).
	Bound(in *big.Int, inExp int) *big.Int
}

// Quantize converts a linear nn layer into its homomorphic form with
// scaling factor F.
func Quantize(l nn.Layer, F int64) (Op, error) {
	if F <= 0 {
		return nil, fmt.Errorf("qnn: scaling factor must be positive, got %d", F)
	}
	switch v := l.(type) {
	case *nn.FC:
		return quantizeFC(v, F), nil
	case *nn.Conv:
		return quantizeConv(v, F), nil
	case *nn.BatchNorm:
		return quantizeBatchNorm(v, F), nil
	case *nn.ElemScale:
		return quantizeElemScale(v, F), nil
	case *nn.Flatten:
		return &QFlatten{name: v.Name()}, nil
	default:
		return nil, fmt.Errorf("qnn: layer %s (%T) is not a supported linear layer", l.Name(), l)
	}
}

// QuantizeStage converts a merged linear primitive layer into its op
// sequence.
func QuantizeStage(p *nn.PrimitiveLayer, F int64) ([]Op, error) {
	if p.Kind != nn.Linear {
		return nil, fmt.Errorf("qnn: stage %s is %v, want linear", p.Name(), p.Kind)
	}
	ops := make([]Op, len(p.Layers))
	for i, l := range p.Layers {
		op, err := Quantize(l, F)
		if err != nil {
			return nil, err
		}
		ops[i] = op
	}
	return ops, nil
}

// StageScaleSteps sums the scale steps of a stage's ops.
func StageScaleSteps(ops []Op) int {
	total := 0
	for _, op := range ops {
		total += op.ScaleSteps()
	}
	return total
}

// ApplyStage runs a stage's ops in sequence over ciphertexts, returning
// the result and the output scale exponent.
func ApplyStage(ev *paillier.Evaluator, ops []Op, x *paillier.CipherTensor, inExp, workers int) (*paillier.CipherTensor, int, error) {
	cur, exp := x, inExp
	for _, op := range ops {
		out, err := op.Apply(ev, cur, exp, workers)
		if err != nil {
			return nil, 0, fmt.Errorf("qnn: applying %s: %w", op.Name(), err)
		}
		cur = out
		exp += op.ScaleSteps()
	}
	return cur, exp, nil
}

// ApplyStagePlain is ApplyStage over plaintext big integers.
func ApplyStagePlain(ops []Op, x *tensor.Tensor[*big.Int], inExp int) (*tensor.Tensor[*big.Int], int, error) {
	cur, exp := x, inExp
	for _, op := range ops {
		out, err := op.ApplyPlain(cur, exp)
		if err != nil {
			return nil, 0, fmt.Errorf("qnn: applying %s (plain): %w", op.Name(), err)
		}
		cur = out
		exp += op.ScaleSteps()
	}
	return cur, exp, nil
}

// int64Bound is the largest magnitude an encrypted activation can have:
// the data provider encrypts int64 values (ScaleInput), so |x| ≤ 2^63.
// The chain of input bounds saturates here.
var int64Bound = new(big.Int).Lsh(big.NewInt(1), 63)

// StageBound returns the largest magnitude any output element of the
// stage can take when every input element's magnitude is at most in, at
// scale F¹ — what every round's input is.
func StageBound(ops []Op, in *big.Int) *big.Int {
	bound, exp := in, 1
	for _, op := range ops {
		bound = op.Bound(bound, exp)
		exp += op.ScaleSteps()
	}
	return bound
}

// Stage is one linear stage as Walk leaves it: its quantized ops and the
// magnitude bounds that hold for every input the network's declared
// domain admits.
type Stage struct {
	Ops []Op
	// In bounds the stage's input elements and Out its output elements,
	// as integers at scale F¹ and F^(1+StageScaleSteps(Ops)).
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
// the slot widths both protocol roles and the planners use.
func Walk(merged []*nn.PrimitiveLayer, inputMax float64, F int64) ([]Stage, error) {
	in := int64Bound
	if inputMax > 0 {
		in = scaledBound(inputMax, F)
	}
	var stages []Stage
	for _, m := range merged {
		if m.Kind != nn.Linear {
			if n := len(stages); n > 0 {
				last := &stages[n-1]
				div := new(big.Float).SetInt(powF(F, 1+StageScaleSteps(last.Ops)))
				real := descale(last.Out, div)
				in = scaledBound(nn.ElementWiseBound(m.Layers, real), F)
			}
			continue
		}
		ops, err := QuantizeStage(m, F)
		if err != nil {
			return nil, err
		}
		stages = append(stages, Stage{Ops: ops, In: in, Out: StageBound(ops, in)})
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

// rowBound bounds |Σ_i w_i·x_i + bias·F^(inExp+1)| over |x_i| ≤ in: the
// row's L1 norm times in, plus the materialized bias's magnitude.
func rowBound(ws []int64, bias float64, F int64, in *big.Int, inExp int) *big.Int {
	l1, t := new(big.Int), new(big.Int)
	for _, w := range ws {
		l1.Add(l1, t.Abs(t.SetInt64(w)))
	}
	l1.Mul(l1, in)
	return l1.Add(l1, t.Abs(biasAt(bias, F, inExp+1)))
}

// worstRowBound is the largest rowBound over the rows of w, each with its
// own bias.
func worstRowBound(w [][]int64, bias []float64, F int64, in *big.Int, inExp int) *big.Int {
	worst := new(big.Int)
	for o, row := range w {
		if b := rowBound(row, bias[o], F, in, inExp); b.Cmp(worst) > 0 {
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

// roundToInt64 rounds w·F to the nearest integer weight.
func roundToInt64(w float64, F int64) int64 {
	return int64(math.Round(w * float64(F)))
}

// biasAt materializes a float bias at scale F^exp as a big integer.
func biasAt(b float64, F int64, exp int) *big.Int {
	bf := new(big.Float).SetFloat64(b)
	bf.Mul(bf, new(big.Float).SetInt(powF(F, exp)))
	out, _ := bf.Int(nil)
	return out
}
