package garble

import "ppstream/internal/paillier"

// extOTTrial is how many transfers an extension-OT trial batches: one PRG
// block of every seed, so the trial wastes none of the blocks it reads.
const extOTTrial = blockBits

// UnitTrials returns the unit-cost trials of one AND gate of the ReLU
// circuit — garbled, then evaluated, with its share of the free gates —
// and of one extension OT, which write into gate and extOT. The extension
// runs over seeds drawn as the base OTs would deliver them but without
// running those: what a transfer costs does not depend on how its seeds
// were agreed, and the base OTs are paid once per party pair, not per
// transfer.
func UnitTrials(gate, extOT *float64) ([]paillier.Trial, error) {
	c, err := ReLUShares()
	if err != nil {
		return nil, err
	}
	g, err := Garble(c)
	if err != nil {
		return nil, err
	}
	gl, err := g.GarblerLabels(nil, make([]bool, c.NGarbler))
	if err != nil {
		return nil, err
	}
	el := make([]Label, c.NEval)
	for i := range el {
		if el[i], _, err = g.EvalLabelPair(i); err != nil {
			return nil, err
		}
	}
	var ev Evaluator
	st, err := randomSetup()
	if err != nil {
		return nil, err
	}
	for i := range st.ks {
		k0, k1 := st.seedPair(i)
		st.ks[i] = k0
		if getBit(st.s[:], i) {
			st.ks[i] = k1
		}
	}
	choice := make([]bool, extOTTrial)
	for j := range choice {
		choice[j] = j%3 == 0
	}
	return []paillier.Trial{
		{Unit: gate, Ops: ReLUANDs, Run: func() error {
			if err := g.Regarble(); err != nil {
				return err
			}
			_, err := ev.Evaluate(c, g.Public(), gl, el)
			return err
		}},
		{Unit: extOT, Ops: extOTTrial, Run: func() error {
			send, recv, err := st.Extend(len(choice), choice)
			if err != nil {
				return err
			}
			var m0, m1 Label
			for j := range choice {
				y0, y1, err := send.Transfer(j, m0, m1)
				if err != nil {
					return err
				}
				if _, err := recv.Receive(j, y0, y1); err != nil {
					return err
				}
			}
			return nil
		}},
	}, nil
}
