// Package garble implements Yao's garbled circuits with free-XOR and
// half-gates, a Paillier-based 1-out-of-2 base oblivious transfer and an
// IKNP OT extension for evaluator inputs. It provides the boolean side of
// the ss-gc backend and the EzPC-style baseline (Exp#6): secure ReLU over
// additively shared values, whose share↔circuit conversions are exactly
// the protocol-transition overhead the paper attributes EzPC's latency to.
package garble

import (
	"fmt"
)

// GateType enumerates supported gates. XOR and NOT are free under
// free-XOR garbling; AND costs a two-row half-gates table.
type GateType int

const (
	// XOR outputs A ⊕ B.
	XOR GateType = iota
	// AND outputs A ∧ B.
	AND
	// NOT outputs ¬A (B unused).
	NOT
)

// Gate is one boolean gate over wire indices.
type Gate struct {
	Type GateType
	A, B int
	Out  int
}

// Circuit is a boolean circuit with a two-party input split: wires
// [0,NGarbler) belong to the garbler, [NGarbler, NGarbler+NEval) to the
// evaluator.
type Circuit struct {
	NGarbler int
	NEval    int
	Gates    []Gate
	Outputs  []int
	nWires   int
}

// NWires returns the total wire count.
func (c *Circuit) NWires() int { return c.nWires }

// ANDCount returns the number of AND gates (the garbling cost driver).
func (c *Circuit) ANDCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.Type == AND {
			n++
		}
	}
	return n
}

// Validate checks wire indices are well-formed and acyclic (gates in
// topological order by construction).
func (c *Circuit) Validate() error {
	if c.NGarbler < 0 || c.NEval < 0 || c.NGarbler+c.NEval == 0 {
		return fmt.Errorf("garble: circuit needs inputs (garbler %d, evaluator %d)", c.NGarbler, c.NEval)
	}
	defined := c.NGarbler + c.NEval
	for i, g := range c.Gates {
		if g.A < 0 || g.A >= defined {
			return fmt.Errorf("garble: gate %d reads undefined wire %d", i, g.A)
		}
		if g.Type != NOT && (g.B < 0 || g.B >= defined) {
			return fmt.Errorf("garble: gate %d reads undefined wire %d", i, g.B)
		}
		if g.Out != defined {
			return fmt.Errorf("garble: gate %d writes wire %d, want %d (topological order)", i, g.Out, defined)
		}
		defined++
	}
	for _, o := range c.Outputs {
		if o < 0 || o >= defined {
			return fmt.Errorf("garble: output wire %d undefined", o)
		}
	}
	return nil
}

// Builder incrementally constructs circuits in topological order.
type Builder struct {
	c Circuit
}

// NewBuilder allocates the two parties' input wires.
func NewBuilder(nGarbler, nEval int) *Builder {
	return &Builder{c: Circuit{NGarbler: nGarbler, NEval: nEval, nWires: nGarbler + nEval}}
}

// GarblerInput returns the wire index of the garbler's i-th input bit.
func (b *Builder) GarblerInput(i int) int { return i }

// EvalInput returns the wire index of the evaluator's i-th input bit.
func (b *Builder) EvalInput(i int) int { return b.c.NGarbler + i }

func (b *Builder) gate(t GateType, a, bw int) int {
	out := b.c.nWires
	b.c.nWires++
	b.c.Gates = append(b.c.Gates, Gate{Type: t, A: a, B: bw, Out: out})
	return out
}

// XOR adds an XOR gate.
func (b *Builder) XOR(a, bw int) int { return b.gate(XOR, a, bw) }

// AND adds an AND gate.
func (b *Builder) AND(a, bw int) int { return b.gate(AND, a, bw) }

// NOT adds a NOT gate.
func (b *Builder) NOT(a int) int { return b.gate(NOT, a, -1) }

// Output marks wires as circuit outputs (revealed to the evaluator).
func (b *Builder) Output(wires ...int) { b.c.Outputs = append(b.c.Outputs, wires...) }

// Build finalizes the circuit.
func (b *Builder) Build() (*Circuit, error) {
	c := b.c
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// add64Gates and add64ANDs are the gates and the AND gates of one Add64:
// bit 0 is an XOR and an AND, bits 1–62 two XORs for the sum, two ANDs and
// an XOR for the carry, and bit 63 the two sum XORs alone.
const (
	add64Gates = 2 + 62*5 + 2
	add64ANDs  = 1 + 62*2
)

// ReLUANDs is the AND-gate count of the ReLUShares circuit — two adders
// and the 64 gates that zero a negative sum — and ReLUEvalBits its
// evaluator input bits, each one extension OT.
const (
	ReLUANDs     = 2*add64ANDs + 64
	ReLUEvalBits = 64
)

// Add64 appends a 64-bit ripple-carry adder over two little-endian wire
// slices, returning the sum wires (the final carry is dropped: ring
// arithmetic mod 2^64). Per bit: sum = a⊕b⊕c; carry' = (a∧b)⊕(c∧(a⊕b)),
// two AND gates.
func (b *Builder) Add64(a, x []int) ([]int, error) {
	if len(a) != 64 || len(x) != 64 {
		return nil, fmt.Errorf("garble: Add64 needs 64-bit operands, got %d/%d", len(a), len(x))
	}
	sum := make([]int, 64)
	carry := -1
	for i := 0; i < 64; i++ {
		axb := b.XOR(a[i], x[i])
		if carry < 0 {
			sum[i] = axb
			if i < 63 {
				carry = b.AND(a[i], x[i])
			}
			continue
		}
		sum[i] = b.XOR(axb, carry)
		if i < 63 {
			ab := b.AND(a[i], x[i])
			cx := b.AND(carry, axb)
			carry = b.XOR(ab, cx)
		}
	}
	return sum, nil
}

// ReLUShares builds the EzPC-style secure ReLU circuit over additively
// shared 64-bit ring values:
//
//	garbler inputs:   x0 (its share, 64 bits), negR (−r, its fresh output
//	                  mask, 64 bits)
//	evaluator inputs: x1 (its share, 64 bits)
//	outputs:          y − r where y = ReLU(x0 + x1), revealed to the
//	                  evaluator as its new share (the garbler keeps r).
//
// Internally: s = x0 + x1; pos = ¬sign(s); y_i = pos ∧ s_i; out = y + negR.
// The circuit is built whenever it is needed, with its gate list sized
// exactly, rather than kept: it is 693 gates.
func ReLUShares() (*Circuit, error) {
	b := NewBuilder(128, ReLUEvalBits)
	b.c.Gates = make([]Gate, 0, 2*add64Gates+1+64)
	x0 := make([]int, 64)
	negR := make([]int, 64)
	x1 := make([]int, 64)
	for i := 0; i < 64; i++ {
		x0[i] = b.GarblerInput(i)
		negR[i] = b.GarblerInput(64 + i)
		x1[i] = b.EvalInput(i)
	}
	s, err := b.Add64(x0, x1)
	if err != nil {
		return nil, err
	}
	pos := b.NOT(s[63])
	y := make([]int, 64)
	for i := 0; i < 64; i++ {
		y[i] = b.AND(pos, s[i])
	}
	out, err := b.Add64(y, negR)
	if err != nil {
		return nil, err
	}
	b.Output(out...)
	return b.Build()
}

// Bits64 decomposes a ring value into 64 little-endian bits.
func Bits64(v uint64) []bool {
	out := make([]bool, 64)
	for i := 0; i < 64; i++ {
		out[i] = (v>>uint(i))&1 == 1
	}
	return out
}

// FromBits64 reassembles a ring value from little-endian bits.
func FromBits64(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}
