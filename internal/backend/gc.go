package backend

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"

	"ppstream/internal/garble"
	"ppstream/internal/obs"
	"ppstream/internal/secshare"
)

// The garbled-circuit ReLU of the ss-gc backend and of the EzPC-style
// baseline, the arithmetic→boolean→arithmetic round trip: party 0 garbles
// the shared 64-bit ReLU circuit with its share and a fresh output mask
// as garbler inputs, party 1 obtains its input labels through one batch
// of the party pair's OT extension covering the whole layer, and the
// evaluated output bits plus the mask form fresh additive shares of
// ReLU(x). Exact on ring integers: ReLU over Z_{2^64} two's complement is
// a sign test, which commutes with descaling.

// ReLUCost is what GCReLUShares meters for a layer of n elements: every
// element's circuit garbled and evaluated, and one extension OT per bit of
// party 1's share.
func ReLUCost(n int) obs.CostStats {
	return obs.CostStats{GCGates: uint64(n * garble.ReLUANDs), ExtOTs: uint64(n * garble.ReLUEvalBits)}
}

// GCReLUShares applies ReLU to a shared vector through half-gates garbled
// circuits, with party 1's input labels from one batch of ot, and returns
// fresh shares of the result. The meter (optional) receives the gate and
// extension-OT counts (ReLUCost). The layer builds the circuit once and
// garbles, labels and evaluates every element in the same storage.
func GCReLUShares(ot *garble.OTSetup, x []secshare.Shares, meter *obs.CostMeter) ([]secshare.Shares, error) {
	if len(x) == 0 {
		return nil, nil
	}
	const bits = garble.ReLUEvalBits
	// Party 1's choice bits for every element, so one batch serves the
	// layer.
	choice := make([]bool, len(x)*bits)
	for i, s := range x {
		putBits(choice[i*bits:(i+1)*bits], s.S[1])
	}
	sender, receiver, err := ot.Extend(len(choice), choice)
	if err != nil {
		return nil, fmt.Errorf("backend: gc relu ot extension: %w", err)
	}
	circuit, err := garble.ReLUShares()
	if err != nil {
		return nil, fmt.Errorf("backend: gc relu circuit: %w", err)
	}
	g, err := garble.Garble(circuit)
	if err != nil {
		return nil, fmt.Errorf("backend: gc relu garble: %w", err)
	}
	// Party 0's fresh output masks, which hide the circuit outputs from
	// party 1.
	masks := make([]byte, 8*len(x))
	if _, err := rand.Read(masks); err != nil {
		return nil, fmt.Errorf("backend: randomness: %w", err)
	}
	var ev garble.Evaluator
	gBits := make([]bool, 2*bits)
	gl := make([]garble.Label, 0, 2*bits)
	el := make([]garble.Label, bits)
	out := make([]secshare.Shares, len(x))
	for i, s := range x {
		if i > 0 {
			if err := g.Regarble(); err != nil {
				return nil, fmt.Errorf("backend: gc relu garble: %w", err)
			}
		}
		r := binary.BigEndian.Uint64(masks[8*i:])
		putBits(gBits[:bits], s.S[0])
		putBits(gBits[bits:], -r)
		if gl, err = g.GarblerLabels(gl[:0], gBits); err != nil {
			return nil, fmt.Errorf("backend: gc relu labels: %w", err)
		}
		for b := range el {
			m0, m1, err := g.EvalLabelPair(b)
			if err != nil {
				return nil, err
			}
			y0, y1, err := sender.Transfer(i*bits+b, m0, m1)
			if err != nil {
				return nil, err
			}
			if el[b], err = receiver.Receive(i*bits+b, y0, y1); err != nil {
				return nil, err
			}
		}
		outBits, err := ev.Evaluate(circuit, g.Public(), gl, el)
		if err != nil {
			return nil, fmt.Errorf("backend: gc relu evaluate: %w", err)
		}
		out[i] = secshare.Shares{S: [2]uint64{r, garble.FromBits64(outBits)}}
	}
	meter.Add(ReLUCost(len(x)))
	return out, nil
}

// putBits writes v's little-endian bits into dst, as garble.Bits64 returns
// them.
func putBits(dst []bool, v uint64) {
	for i := range dst {
		dst[i] = v>>uint(i)&1 == 1
	}
}

// randomWord draws 64 bits from crypto/rand: the ss-gc dealer's seed,
// whose triple stream must not be predictable across rounds.
func randomWord() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("backend: randomness: %w", err)
	}
	return binary.BigEndian.Uint64(b[:]), nil
}
