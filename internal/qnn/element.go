package qnn

import (
	"fmt"

	"ppstream/internal/paillier"
	"ppstream/internal/tensor"
)

// ElementOp is implemented by quantized ops that can compute output
// elements independently, the property behind the paper's tensor
// partitioning (Section IV-D): each thread produces a slice of the
// output tensor and needs only the input sub-tensor its elements read.
type ElementOp interface {
	Op
	// OutSize returns the number of output elements for an input shape.
	OutSize(in tensor.Shape) (int, error)
	// InputNeeds lists the flat input offsets that output element
	// outIdx reads. A nil return means the whole input is required
	// (fully-connected operations support only output partitioning).
	InputNeeds(in tensor.Shape, outIdx int) []int
	// ComputeRange evaluates output elements [lo, hi) into out, which has
	// hi−lo entries, over view: one thread's copy of the input, indexed
	// by flat input offset and nil at offsets the thread was not sent.
	// Reading an unsent offset is an error. Dot-product ops hand the whole
	// range to ONE paillier.Rows call, so what the kernel shares between
	// rows (power tables, the batched inversion) is paid once per thread,
	// not once per element. Like Apply's, the elements are not
	// re-randomized.
	ComputeRange(ev *paillier.Evaluator, view []*paillier.Ciphertext, in tensor.Shape, lo, hi, inExp int, out []*paillier.Ciphertext) error
}

// OutSize implements ElementOp for QFC.
func (q *QFC) OutSize(in tensor.Shape) (int, error) {
	if in.Size() != len(q.W[0]) {
		return 0, fmt.Errorf("qnn: %s expects %d inputs, got %v", q.name, len(q.W[0]), in)
	}
	return len(q.W), nil
}

// InputNeeds implements ElementOp: fully-connected rows read everything.
func (q *QFC) InputNeeds(tensor.Shape, int) []int { return nil }

// ComputeRange implements ElementOp.
func (q *QFC) ComputeRange(ev *paillier.Evaluator, view []*paillier.Ciphertext, _ tensor.Shape, lo, hi, inExp int, out []*paillier.Ciphertext) error {
	return q.rows(ev, view, lo, hi, inExp, 1, out)
}

// OutSize implements ElementOp for QConv.
func (q *QConv) OutSize(in tensor.Shape) (int, error) {
	want := q.P.InC * q.P.InH * q.P.InW
	if in.Size() != want {
		return 0, fmt.Errorf("qnn: %s expects %d inputs, got %v", q.name, want, in)
	}
	return q.P.OutC * q.P.OutH() * q.P.OutW(), nil
}

// InputNeeds implements ElementOp: a conv output element reads exactly
// its receptive field — the sub-tensor of Figure 5.
func (q *QConv) InputNeeds(_ tensor.Shape, outIdx int) []int {
	positions := q.P.OutH() * q.P.OutW()
	pos := outIdx % positions
	row := q.Rows[pos]
	needs := make([]int, 0, len(row))
	for _, off := range row {
		if off >= 0 {
			needs = append(needs, off)
		}
	}
	return needs
}

// ComputeRange implements ElementOp.
func (q *QConv) ComputeRange(ev *paillier.Evaluator, view []*paillier.Ciphertext, _ tensor.Shape, lo, hi, inExp int, out []*paillier.Ciphertext) error {
	return q.elements(ev, view, lo, hi, inExp, 1, out)
}

// OutSize implements ElementOp for QAffine.
func (q *QAffine) OutSize(in tensor.Shape) (int, error) {
	if _, err := q.coeffIndex(in); err != nil {
		return 0, err
	}
	return in.Size(), nil
}

// InputNeeds implements ElementOp: element-wise ops read one element.
func (q *QAffine) InputNeeds(_ tensor.Shape, outIdx int) []int { return []int{outIdx} }

// ComputeRange implements ElementOp.
func (q *QAffine) ComputeRange(ev *paillier.Evaluator, view []*paillier.Ciphertext, in tensor.Shape, lo, hi, inExp int, out []*paillier.Ciphertext) error {
	idx, err := q.coeffIndex(in)
	if err != nil {
		return err
	}
	for i := lo; i < hi; i++ {
		if view[i] == nil {
			return fmt.Errorf("qnn: %s element %d reads an input offset its thread was not sent", q.name, i)
		}
		if out[i-lo], err = q.element(ev, view[i], idx(i), inExp); err != nil {
			return err
		}
	}
	ev.CostMeter().Add(q.cost(idx, lo, hi))
	return nil
}

// OutSize implements ElementOp for QFlatten.
func (q *QFlatten) OutSize(in tensor.Shape) (int, error) { return in.Size(), nil }

// InputNeeds implements ElementOp.
func (q *QFlatten) InputNeeds(_ tensor.Shape, outIdx int) []int { return []int{outIdx} }

// ComputeRange implements ElementOp: identity.
func (q *QFlatten) ComputeRange(_ *paillier.Evaluator, view []*paillier.Ciphertext, _ tensor.Shape, lo, hi, _ int, out []*paillier.Ciphertext) error {
	for i := lo; i < hi; i++ {
		if view[i] == nil {
			return fmt.Errorf("qnn: %s element %d reads an input offset its thread was not sent", q.name, i)
		}
		out[i-lo] = view[i]
	}
	return nil
}
