package qnn

import (
	"math"
	"math/big"
	"testing"

	"ppstream/internal/models"
	"ppstream/internal/nn"
	"ppstream/internal/tensor"
)

// stage0Rows returns the coefficient rows of the stage's outputs over its
// flat input — every row of a fully-connected stage, every filter of a
// convolution at its centre position — for aiming inputs at them. All
// nine Table III models open with one such op, after at most a Flatten.
func stage0Rows(t *testing.T, ops []Op, inputs int) [][]int64 {
	t.Helper()
	for _, op := range ops {
		switch q := op.(type) {
		case *QFlatten:
			continue
		case *QFC:
			return q.W
		case *QConv:
			centre := q.Rows[len(q.Rows)/2]
			rows := make([][]int64, len(q.W))
			for f, filter := range q.W {
				rows[f] = make([]int64, inputs)
				for k, at := range centre {
					if at >= 0 {
						rows[f][at] = filter[k]
					}
				}
			}
			return rows
		}
		break
	}
	t.Fatalf("stage 0 opens with %T, want a dot-product op", ops[0])
	return nil
}

// TestWalkSoundOnTableIIIModels is the chained bound's soundness, by
// machine, on all nine Table III models at the benchmark's factor: inputs
// at ± the declared maximum, sign-matched to push each stage-0 output (see
// stage0Rows) furthest up and furthest down, plus the all-max and all-min
// vectors, go through the plaintext reference exactly as the two parties
// compute it — ScaleInput, ApplyStagePlain, Descale, the element-wise
// layers, ScaleInput again — and at every stage every input must stay
// within Stage.In and every output within Stage.Out, float roundings
// included. A stage whose input the chain had to saturate at 2⁶³ (VGG's
// deepest) is bounded by construction and ends the walk.
func TestWalkSoundOnTableIIIModels(t *testing.T) {
	const F = 100
	for _, spec := range models.All() {
		net, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if net.InputMax != spec.InputMax() || net.InputMax <= 0 {
			t.Fatalf("%s declares input domain %v, its dataset guarantees %v", spec.Name, net.InputMax, spec.InputMax())
		}
		merged, err := nn.Merge(net)
		if err != nil {
			t.Fatal(err)
		}
		stages, err := Walk(merged, net.InputMax, F)
		if err != nil {
			t.Fatal(err)
		}
		n := net.InputShape.Size()
		aim := func(sign func(i int) bool) *tensor.Dense {
			x := tensor.Zeros(net.InputShape...)
			for i := range x.Data() {
				x.Data()[i] = net.InputMax
				if !sign(i) {
					x.Data()[i] = -net.InputMax
				}
			}
			return x
		}
		inputs := []*tensor.Dense{aim(func(int) bool { return true }), aim(func(int) bool { return false })}
		for _, row := range stage0Rows(t, stages[0].Ops, n) {
			inputs = append(inputs, aim(func(i int) bool { return row[i] >= 0 }), aim(func(i int) bool { return row[i] < 0 }))
		}
		for _, x := range inputs {
			cur := ScaleInput(x, F)
			for r, st := range stages {
				if st.In.Cmp(int64Bound) == 0 {
					break
				}
				for i, v := range cur.Data() {
					if big.NewInt(v).CmpAbs(st.In) > 0 {
						t.Fatalf("%s round %d input %d = %d exceeds the chained bound %s", spec.Name, r, i, v, st.In)
					}
				}
				shaped, err := tensor.Map(cur, func(v int64) *big.Int { return big.NewInt(v) }).Reshape(merged[2*r].InShape...)
				if err != nil {
					t.Fatal(err)
				}
				out, exp, err := ApplyStagePlain(st.Ops, shaped, 1)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range out.Data() {
					if v.CmpAbs(st.Out) > 0 {
						t.Fatalf("%s round %d output %d = %s exceeds the chained bound %s", spec.Name, r, i, v, st.Out)
					}
				}
				if r == len(stages)-1 {
					break
				}
				vals, err := Descale(out, F, exp)
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range merged[2*r+1].Layers {
					vals = tensor.Map(vals, l.(nn.ElementWise).ApplyElement)
				}
				cur = ScaleInput(vals, F)
			}
		}
	}
}

// TestBoundSoundAtInt64Extremes is the undeclared-domain case of the chain
// (Walk starts a network that declares no input domain at 2⁶³): it feeds
// every kind of op the inputs that maximize its outputs — each element at ±2⁶³⁻ with the sign of the
// weight that multiplies it, per output element, plus the all-min, all-max
// and alternating vectors — through ApplyPlain, and requires that no
// output exceeds the op's reported bound, alone and chained through a
// stage the way StageBound propagates it.
func TestBoundSoundAtInt64Extremes(t *testing.T) {
	const F = 1_000_000
	r := rng()
	conv, err := nn.NewConv("c", tensor.ConvParams{InC: 2, InH: 4, InW: 4, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	bn := nn.NewBatchNorm("bn", 3)
	bn.Gamma = tensor.MustFromSlice([]float64{-1.7, 0, 2.3}, 3)
	bn.Beta = tensor.MustFromSlice([]float64{0.5, -40, 7}, 3)
	bn.Mean = tensor.MustFromSlice([]float64{3, -2, 0.1}, 3)
	scale := tensor.Zeros(48)
	for i := range scale.Data() {
		scale.Data()[i] = r.NormFloat64() * 3
	}
	fc := nn.NewFC("fc", 48, 5, r)
	fc.B.Fill(-123.456)
	stage := []nn.Layer{conv, bn, nn.NewFlatten("fl"), &nn.ElemScale{LayerName: "es", Scale: scale}, fc}

	ops := make([]Op, len(stage))
	for i, l := range stage {
		if ops[i], err = Quantize(l, F); err != nil {
			t.Fatal(err)
		}
	}

	// extremes returns the input vectors to try for one op: the fixed
	// patterns, and per output element the sign pattern that pushes it
	// furthest up (its negation pushes it furthest down).
	extremes := func(op Op, shape tensor.Shape) []*tensor.Tensor[*big.Int] {
		n := shape.Size()
		lo, hi := big.NewInt(math.MinInt64), big.NewInt(math.MaxInt64)
		fill := func(pick func(i int) *big.Int) *tensor.Tensor[*big.Int] {
			x := tensor.New[*big.Int](shape...)
			for i := 0; i < n; i++ {
				x.SetFlat(i, pick(i))
			}
			return x
		}
		out := []*tensor.Tensor[*big.Int]{
			fill(func(int) *big.Int { return lo }),
			fill(func(int) *big.Int { return hi }),
			fill(func(i int) *big.Int {
				if i%2 == 0 {
					return lo
				}
				return hi
			}),
		}
		// Probe each input's effect on each output with unit vectors, then
		// aim every input at that output.
		zero := fill(func(int) *big.Int { return new(big.Int) })
		base, err := op.ApplyPlain(zero, 1)
		if err != nil {
			t.Fatal(err)
		}
		signs := make([][]int, base.Size())
		for o := range signs {
			signs[o] = make([]int, n)
		}
		for i := 0; i < n; i++ {
			unit := fill(func(j int) *big.Int {
				if j == i {
					return big.NewInt(1)
				}
				return new(big.Int)
			})
			got, err := op.ApplyPlain(unit, 1)
			if err != nil {
				t.Fatal(err)
			}
			for o := range signs {
				signs[o][i] = got.AtFlat(o).Cmp(base.AtFlat(o))
			}
		}
		for o := range signs {
			for _, flip := range []int{1, -1} {
				out = append(out, fill(func(i int) *big.Int {
					if signs[o][i]*flip < 0 {
						return lo
					}
					return hi
				}))
			}
		}
		return out
	}

	shape := tensor.Shape{2, 4, 4}
	in := int64Bound
	for _, op := range ops {
		bound := op.Bound(in, 1)
		worst := new(big.Int)
		for _, x := range extremes(op, shape) {
			got, err := op.ApplyPlain(x, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range got.Data() {
				if v.CmpAbs(bound) > 0 {
					t.Fatalf("%s output %d = %s exceeds its bound %s", op.Name(), i, v, bound)
				}
				if v.CmpAbs(worst) > 0 {
					worst.Abs(v)
				}
			}
		}
		// The bound is tight to within the −2⁶³ vs 2⁶³−1 asymmetry and the
		// bias: a loose one would waste slot bits.
		if worst.BitLen() < bound.BitLen()-1 {
			t.Errorf("%s: worst output has %d bits, bound %d — not tight", op.Name(), worst.BitLen(), bound.BitLen())
		}
		if shape, err = op.OutShape(shape); err != nil {
			t.Fatal(err)
		}
	}

	// Chained: the stage bound covers the stage's outputs for extreme
	// stage inputs, with exponents threaded as ApplyStagePlain does.
	stageBound := StageBound(ops, int64Bound)
	for _, x := range extremes(ops[0], tensor.Shape{2, 4, 4}) {
		got, _, err := ApplyStagePlain(ops, x, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got.Data() {
			if v.CmpAbs(stageBound) > 0 {
				t.Fatalf("stage output %d = %s exceeds the stage bound %s", i, v, stageBound)
			}
		}
	}
}
