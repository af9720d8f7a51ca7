package backend

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"

	"ppstream/internal/garble"
	"ppstream/internal/obs"
	"ppstream/internal/secshare"
)

// The garbled-circuit ReLU of the ss-gc backend and of the EzPC-style
// baseline, the arithmetic→boolean→arithmetic round trip: party 0 garbles
// the shared 64-bit ReLU circuit with its share and a fresh output mask
// as garbler inputs, party 1 obtains its input labels through one OT
// extension covering the whole layer, and the evaluated output bits
// plus the mask form fresh additive shares of ReLU(x). Exact on ring
// integers: ReLU over Z_{2^64} two's complement is a sign test, which
// commutes with descaling.

// gcRelu lazily builds the shared ReLU circuit and the base-OT key once
// per process — both are reusable across layers and sessions.
var gcRelu struct {
	once    sync.Once
	circuit *garble.Circuit
	ot      *garble.OT
	err     error
}

func gcReluInit() (*garble.Circuit, *garble.OT, error) {
	gcRelu.once.Do(func() {
		gcRelu.circuit, gcRelu.err = garble.ReLUShares()
		if gcRelu.err != nil {
			return
		}
		gcRelu.ot, gcRelu.err = garble.NewOT(256)
	})
	return gcRelu.circuit, gcRelu.ot, gcRelu.err
}

// GCReLUShares applies ReLU to a shared vector through half-gates
// garbled circuits, one OT extension for the layer, and returns fresh
// shares of the result. The meter (optional) receives the GC gate and
// extension-OT counts.
func GCReLUShares(x []secshare.Shares, meter *obs.CostMeter) ([]secshare.Shares, error) {
	if len(x) == 0 {
		return nil, nil
	}
	circuit, ot, err := gcReluInit()
	if err != nil {
		return nil, fmt.Errorf("backend: gc relu setup: %w", err)
	}

	// Party 1's choice bits for every element, gathered so one OT
	// extension serves the layer.
	choice := make([]bool, 0, len(x)*64)
	for _, s := range x {
		choice = append(choice, garble.Bits64(s.S[1])...)
	}
	sender, receiver, err := garble.NewOTExtension(ot, len(choice), choice)
	if err != nil {
		return nil, fmt.Errorf("backend: gc relu ot extension: %w", err)
	}

	var gates, extOTs uint64
	out := make([]secshare.Shares, len(x))
	for i, s := range x {
		g, err := garble.Garble(circuit)
		if err != nil {
			return nil, fmt.Errorf("backend: gc relu garble: %w", err)
		}
		gates += uint64(circuit.ANDCount())
		r, err := randomMask()
		if err != nil {
			return nil, err
		}
		gl, err := g.GarblerLabels(append(garble.Bits64(s.S[0]), garble.Bits64(-r)...))
		if err != nil {
			return nil, fmt.Errorf("backend: gc relu labels: %w", err)
		}
		el := make([]garble.Label, 64)
		for b := 0; b < 64; b++ {
			idx := i*64 + b
			m0, m1, err := g.EvalLabelPair(b)
			if err != nil {
				return nil, err
			}
			y0, y1, err := sender.Transfer(idx, m0, m1)
			if err != nil {
				return nil, err
			}
			el[b], err = receiver.Receive(idx, y0, y1)
			if err != nil {
				return nil, err
			}
			extOTs++
		}
		bits, err := garble.Evaluate(circuit, g.Public(), gl, el)
		if err != nil {
			return nil, fmt.Errorf("backend: gc relu evaluate: %w", err)
		}
		out[i] = secshare.Shares{S: [2]uint64{r, garble.FromBits64(bits)}}
	}
	if meter != nil {
		meter.Add(obs.CostStats{GCGates: gates, ExtOTs: extOTs})
	}
	return out, nil
}

// randomMask draws party 0's fresh output mask from crypto/rand — the
// mask hides the circuit output from party 1, so it must be
// unpredictable.
func randomMask() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("backend: mask randomness: %w", err)
	}
	return binary.BigEndian.Uint64(b[:]), nil
}
