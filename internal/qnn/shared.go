package qnn

import (
	"fmt"

	"ppstream/internal/secshare"
	"ppstream/internal/tensor"
)

// ApplyStageShared runs a stage's ops in sequence over a shared tensor:
// the integer arithmetic ApplyPlain performs over big integers, carried
// out over additive shares in Z_{2^64} with Beaver triples and NO
// truncation. Each op's KernelRows are the arithmetic:
// every row gathers its inputs and runs one secshare.Engine.DotPrivateInt
// (a structural op's elements are its inputs). The ring agrees with the
// integers on every value in [−2^63, 2^63), so a stage whose outputs stay
// there — backend.PlanFor assigns ss-gc no other — reconstructs
// bit-identically to the plaintext reference.
func ApplyStageShared(e *secshare.Engine, ops []Op, x *tensor.Tensor[secshare.Shares]) (*tensor.Tensor[secshare.Shares], error) {
	for _, op := range ops {
		in := x.Shape()
		shape, err := op.OutShape(in)
		if err != nil {
			return nil, fmt.Errorf("qnn: applying %s (shared): %w", op.Name(), err)
		}
		out := tensor.New[secshare.Shares](shape...)
		xs, od := x.Data(), out.Data()
		rows := op.KernelRows(in, 0, len(od))
		if rows == nil {
			copy(od, xs)
		}
		for o, r := range rows {
			gathered := xs
			if r.Idx != nil {
				gathered = make([]secshare.Shares, len(r.Idx))
				for j, off := range r.Idx {
					gathered[j] = xs[off]
				}
			}
			if od[o], err = e.DotPrivateInt(r.W, gathered, r.Bias); err != nil {
				return nil, fmt.Errorf("qnn: applying %s (shared): %w", op.Name(), err)
			}
		}
		x = out
	}
	return x, nil
}
