package garble

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Half-gates garbling (Zahur, Rosulek, Evans — EUROCRYPT 2015): each AND
// gate costs two ciphertexts, XOR and NOT are free. The construction
// splits a∧b into a garbler half a∧p_b (the garbler knows b's permute bit
// p_b) and an evaluator half a∧(b⊕p_b) (the evaluator learns b⊕p_b from
// its label's permute bit):
//
//	T_G = H(A₀,2j) ⊕ H(A₁,2j) ⊕ p_b·Δ      W_G = H(A₀,2j) ⊕ p_a·T_G
//	T_E = H(B₀,2j+1) ⊕ H(B₁,2j+1) ⊕ A₀     W_E = H(B₀,2j+1) ⊕ p_b·(T_E ⊕ A₀)
//	out₀ = W_G ⊕ W_E, table = (T_G, T_E)
//
// evaluation with labels A, B (permute bits s_a, s_b):
//
//	W = H(A,2j) ⊕ s_a·T_G ⊕ H(B,2j+1) ⊕ s_b·(T_E ⊕ A)

// LabelSize is the wire-label size in bytes (128-bit security labels).
const LabelSize = 16

// Label is a wire label.
type Label [LabelSize]byte

func (l Label) xor(o Label) Label {
	var out Label
	for i := range l {
		out[i] = l[i] ^ o[i]
	}
	return out
}

// permBit returns the label's permute bit (lsb of last byte).
func (l Label) permBit() int { return int(l[LabelSize-1] & 1) }

// hash is the garbling hash H(L, j): SHA-256 of the label and the tweak j,
// truncated to a label. Every hash of one garbling has its own j.
func hash(l Label, j int) Label {
	var in [LabelSize + 8]byte
	copy(in[:], l[:])
	binary.LittleEndian.PutUint64(in[LabelSize:], uint64(j))
	sum := sha256.Sum256(in[:])
	var out Label
	copy(out[:], sum[:])
	return out
}

// Garbled is the evaluator-visible part of a garbling: what crosses the
// wire to the evaluator besides the input labels.
type Garbled struct {
	// Tables holds two rows per AND gate in gate order.
	Tables [][2]Label
	// Decode holds, per output wire, the permute bit of the FALSE label:
	// output bit = lsb(evaluated label) ⊕ Decode[i].
	Decode []int
}

// Garbling is the garbler's secret state. Its storage is sized once, for
// its circuit: Regarble garbles again into it.
type Garbling struct {
	circuit *Circuit
	delta   Label // free-XOR global offset, lsb forced to 1
	zero    []Label
	public  Garbled
	// rnd receives each garbling's fresh randomness: delta, then the
	// FALSE label of every input wire.
	rnd []byte
}

// Garble garbles the circuit with fresh randomness.
func Garble(c *Circuit) (*Garbling, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	g := &Garbling{
		circuit: c,
		zero:    make([]Label, c.NWires()),
		public:  Garbled{Tables: make([][2]Label, c.ANDCount()), Decode: make([]int, len(c.Outputs))},
		rnd:     make([]byte, (1+c.NGarbler+c.NEval)*LabelSize),
	}
	return g, g.Regarble()
}

// Regarble garbles the same circuit again with fresh randomness, in place:
// the previous garbling's labels, tables and decode bits are overwritten,
// and nothing is allocated.
func (g *Garbling) Regarble() error {
	c := g.circuit
	if _, err := rand.Read(g.rnd); err != nil {
		return fmt.Errorf("garble: randomness: %w", err)
	}
	copy(g.delta[:], g.rnd)
	g.delta[LabelSize-1] |= 1 // the permute bit of a label's pair differs
	for i := 0; i < c.NGarbler+c.NEval; i++ {
		copy(g.zero[i][:], g.rnd[(1+i)*LabelSize:])
	}
	gateID := 0
	for _, gate := range c.Gates {
		switch gate.Type {
		case XOR:
			g.zero[gate.Out] = g.zero[gate.A].xor(g.zero[gate.B])
		case NOT:
			// The evaluator's label passes through unchanged; flipping the
			// FALSE label flips the truth value it decodes to.
			g.zero[gate.Out] = g.zero[gate.A].xor(g.delta)
		case AND:
			a0, b0 := g.zero[gate.A], g.zero[gate.B]
			hA0, hA1 := hash(a0, 2*gateID), hash(a0.xor(g.delta), 2*gateID)
			tg := hA0.xor(hA1)
			if b0.permBit() == 1 {
				tg = tg.xor(g.delta)
			}
			wg := hA0
			if a0.permBit() == 1 {
				wg = wg.xor(tg)
			}
			hB0, hB1 := hash(b0, 2*gateID+1), hash(b0.xor(g.delta), 2*gateID+1)
			te := hB0.xor(hB1).xor(a0)
			we := hB0
			if b0.permBit() == 1 {
				we = we.xor(te.xor(a0))
			}
			g.zero[gate.Out] = wg.xor(we)
			g.public.Tables[gateID] = [2]Label{tg, te}
			gateID++
		default:
			return fmt.Errorf("garble: unknown gate type %v", gate.Type)
		}
	}
	for i, w := range c.Outputs {
		g.public.Decode[i] = g.zero[w].permBit()
	}
	return nil
}

// Public returns the data shipped to the evaluator (tables + decode).
func (g *Garbling) Public() *Garbled { return &g.public }

// GarblerLabels appends the garbler's own input labels for its bits to
// dst and returns the extended slice.
func (g *Garbling) GarblerLabels(dst []Label, bits []bool) ([]Label, error) {
	if len(bits) != g.circuit.NGarbler {
		return nil, fmt.Errorf("garble: %d garbler bits, circuit wants %d", len(bits), g.circuit.NGarbler)
	}
	for i, b := range bits {
		l := g.zero[i]
		if b {
			l = l.xor(g.delta)
		}
		dst = append(dst, l)
	}
	return dst, nil
}

// EvalLabelPair returns both labels of the evaluator's i-th input wire —
// the sender inputs to the oblivious transfer.
func (g *Garbling) EvalLabelPair(i int) (zero, one Label, err error) {
	if i < 0 || i >= g.circuit.NEval {
		return zero, one, fmt.Errorf("garble: no evaluator input %d", i)
	}
	w := g.circuit.NGarbler + i
	return g.zero[w], g.zero[w].xor(g.delta), nil
}

// Evaluator evaluates garbled circuits, keeping its wire labels and output
// bits between calls: the bits one Evaluate returns are overwritten by the
// next. The zero value is ready to use.
type Evaluator struct {
	labels []Label
	out    []bool
}

// Evaluate runs the garbled circuit with one label per input wire and
// returns the decoded output bits.
func (e *Evaluator) Evaluate(c *Circuit, pub *Garbled, garblerLabels, evalLabels []Label) ([]bool, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(garblerLabels) != c.NGarbler || len(evalLabels) != c.NEval {
		return nil, fmt.Errorf("garble: label counts %d/%d, circuit wants %d/%d",
			len(garblerLabels), len(evalLabels), c.NGarbler, c.NEval)
	}
	if len(pub.Decode) != len(c.Outputs) {
		return nil, fmt.Errorf("garble: decode length %d for %d outputs", len(pub.Decode), len(c.Outputs))
	}
	if cap(e.labels) < c.NWires() {
		e.labels = make([]Label, c.NWires())
	}
	labels := e.labels[:c.NWires()]
	copy(labels, garblerLabels)
	copy(labels[c.NGarbler:], evalLabels)
	gateID := 0
	for _, gate := range c.Gates {
		switch gate.Type {
		case XOR:
			labels[gate.Out] = labels[gate.A].xor(labels[gate.B])
		case NOT:
			labels[gate.Out] = labels[gate.A]
		case AND:
			if gateID >= len(pub.Tables) {
				return nil, fmt.Errorf("garble: missing table for AND gate %d", gateID)
			}
			a, b := labels[gate.A], labels[gate.B]
			tg, te := pub.Tables[gateID][0], pub.Tables[gateID][1]
			w := hash(a, 2*gateID)
			if a.permBit() == 1 {
				w = w.xor(tg)
			}
			wE := hash(b, 2*gateID+1)
			if b.permBit() == 1 {
				wE = wE.xor(te.xor(a))
			}
			labels[gate.Out] = w.xor(wE)
			gateID++
		}
	}
	if cap(e.out) < len(c.Outputs) {
		e.out = make([]bool, len(c.Outputs))
	}
	out := e.out[:len(c.Outputs)]
	for i, w := range c.Outputs {
		out[i] = labels[w].permBit() != pub.Decode[i]
	}
	return out, nil
}
