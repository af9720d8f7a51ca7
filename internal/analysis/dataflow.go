package analysis

// A generic forward worklist dataflow solver over the CFG in cfg.go. An
// analysis supplies a transfer function (how one block's nodes change a
// fact), a meet (how facts joining at a block merge), and an equality
// test for the fixpoint check. The solver is optimistic: a block with no
// computed predecessor facts yet contributes nothing to a meet, so loop
// back-edges converge to the strongest fact the loop actually sustains
// rather than seeding pessimistic bottoms.

// FlowResult carries the per-block fixpoint of a dataflow run: In maps
// the fact at block entry, Out the fact after the block's transfer.
// Blocks unreachable from Entry have neither.
type FlowResult[F any] struct {
	In  map[*Block]F
	Out map[*Block]F
}

// SolveForward runs a forward worklist fixpoint: facts flow along Succs
// edges from Entry (seeded with entry). transfer must be pure — it gets
// the block and the incoming fact and returns the outgoing fact. meet
// merges two facts at a join; equal bounds the iteration.
func SolveForward[F any](cfg *CFG, entry F, transfer func(*Block, F) F, meet func(F, F) F, equal func(F, F) bool) FlowResult[F] {
	res := FlowResult[F]{In: map[*Block]F{cfg.Entry: entry}, Out: map[*Block]F{}}
	work := []*Block{cfg.Entry}
	inWork := map[*Block]bool{cfg.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false

		if b != cfg.Entry {
			var in F
			have := false
			for _, p := range b.Preds {
				po, ok := res.Out[p]
				if !ok {
					continue // optimistic: unvisited edge contributes nothing
				}
				if !have {
					in, have = po, true
				} else {
					in = meet(in, po)
				}
			}
			if !have {
				continue // unreachable so far
			}
			res.In[b] = in
		}

		out := transfer(b, res.In[b])
		if old, seen := res.Out[b]; seen && equal(old, out) {
			continue
		}
		res.Out[b] = out
		for _, s := range b.Succs {
			if !inWork[s] {
				inWork[s] = true
				work = append(work, s)
			}
		}
	}
	return res
}
