package garble

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestBuilderAndValidate(t *testing.T) {
	b := NewBuilder(2, 1)
	x := b.XOR(b.GarblerInput(0), b.EvalInput(0))
	y := b.AND(x, b.GarblerInput(1))
	b.Output(b.NOT(y))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.ANDCount() != 1 {
		t.Errorf("AND count %d", c.ANDCount())
	}
	if c.NWires() != 6 {
		t.Errorf("wires %d", c.NWires())
	}
	// malformed: output references undefined wire
	bad := &Circuit{NGarbler: 1, NEval: 0, Outputs: []int{5}}
	if err := bad.Validate(); err == nil {
		t.Error("undefined output accepted")
	}
	bad2 := &Circuit{NGarbler: 0, NEval: 0}
	if err := bad2.Validate(); err == nil {
		t.Error("inputless circuit accepted")
	}
}

// evalPlain computes the plain-boolean result of a circuit.
func evalPlain(c *Circuit, gBits, eBits []bool) []bool {
	wires := make([]bool, c.NWires())
	copy(wires, gBits)
	copy(wires[c.NGarbler:], eBits)
	for _, g := range c.Gates {
		switch g.Type {
		case XOR:
			wires[g.Out] = wires[g.A] != wires[g.B]
		case AND:
			wires[g.Out] = wires[g.A] && wires[g.B]
		case NOT:
			wires[g.Out] = !wires[g.A]
		}
	}
	out := make([]bool, len(c.Outputs))
	for i, w := range c.Outputs {
		out[i] = wires[w]
	}
	return out
}

// garbledEval garbles and evaluates with directly handed labels (no OT).
func garbledEval(t *testing.T, c *Circuit, gBits, eBits []bool) []bool {
	t.Helper()
	g, err := Garble(c)
	if err != nil {
		t.Fatal(err)
	}
	gl, err := g.GarblerLabels(nil, gBits)
	if err != nil {
		t.Fatal(err)
	}
	el := make([]Label, len(eBits))
	for i, b := range eBits {
		zero, one, err := g.EvalLabelPair(i)
		if err != nil {
			t.Fatal(err)
		}
		if b {
			el[i] = one
		} else {
			el[i] = zero
		}
	}
	out, err := new(Evaluator).Evaluate(c, g.Public(), gl, el)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGateTruthTables(t *testing.T) {
	for _, tt := range []struct {
		name  string
		build func(b *Builder) int
		truth func(a, x bool) bool
	}{
		{"xor", func(b *Builder) int { return b.XOR(0, 1) }, func(a, x bool) bool { return a != x }},
		{"and", func(b *Builder) int { return b.AND(0, 1) }, func(a, x bool) bool { return a && x }},
		{"nand", func(b *Builder) int { return b.NOT(b.AND(0, 1)) }, func(a, x bool) bool { return !(a && x) }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			b := NewBuilder(1, 1)
			b.Output(tt.build(b))
			c, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, ga := range []bool{false, true} {
				for _, ea := range []bool{false, true} {
					got := garbledEval(t, c, []bool{ga}, []bool{ea})
					want := tt.truth(ga, ea)
					if got[0] != want {
						t.Errorf("%s(%v,%v) = %v, want %v", tt.name, ga, ea, got[0], want)
					}
				}
			}
		})
	}
}

func TestAdd64Circuit(t *testing.T) {
	b := NewBuilder(64, 64)
	a := make([]int, 64)
	x := make([]int, 64)
	for i := range a {
		a[i], x[i] = b.GarblerInput(i), b.EvalInput(i)
	}
	sum, err := b.Add64(a, x)
	if err != nil {
		t.Fatal(err)
	}
	b.Output(sum...)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		va, vx := rng.Uint64(), rng.Uint64()
		got := FromBits64(garbledEval(t, c, Bits64(va), Bits64(vx)))
		if got != va+vx {
			t.Errorf("Add64(%d,%d) = %d, want %d", va, vx, got, va+vx)
		}
	}
}

// TestCompare64: the sign bit of a garbled Add64 over the two parties'
// shares — the comparison the ReLU circuit's ¬sign(s) gate reads — is the
// sign of their ring sum, across zero and overflow.
func TestCompare64(t *testing.T) {
	b := NewBuilder(64, 64)
	a, x := make([]int, 64), make([]int, 64)
	for i := range a {
		a[i], x[i] = b.GarblerInput(i), b.EvalInput(i)
	}
	s, err := b.Add64(a, x)
	if err != nil {
		t.Fatal(err)
	}
	b.Output(s[63])
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	asRing := func(v int64) uint64 { return uint64(v) }
	cases := []struct {
		a, x uint64
		neg  bool
	}{
		{5, 10, false},
		{asRing(-7), 3, true},       // sum = -4
		{asRing(-7), 7, false},      // sum = 0
		{asRing(-1) << 62, 0, true}, // large negative
		{1 << 62, 1 << 62, true},    // overflow to negative
	}
	for _, tc := range cases {
		got := garbledEval(t, c, Bits64(tc.a), Bits64(tc.x))
		if got[0] != tc.neg {
			t.Errorf("sign(%d+%d) = %v, want %v", int64(tc.a), int64(tc.x), got[0], tc.neg)
		}
	}
}

// TestReLUSharesCircuit verifies the full EzPC-style ReLU conversion:
// shared input, masked shared output, against plaintext ReLU.
func TestReLUSharesCircuit(t *testing.T) {
	c, err := ReLUShares()
	if err != nil {
		t.Fatal(err)
	}
	if c.ANDCount() != ReLUANDs || c.NEval != ReLUEvalBits || len(c.Gates) != cap(c.Gates) {
		t.Errorf("ReLU circuit: %d AND gates, %d evaluator bits, %d of %d gate slots; want %d, %d, all",
			c.ANDCount(), c.NEval, len(c.Gates), cap(c.Gates), ReLUANDs, ReLUEvalBits)
	}
	rng := rand.New(rand.NewSource(8))
	xs := []int64{98765, -98765, 0, 1, -1}
	for trial := 0; trial < 6; trial++ {
		xs = append(xs, int64(rng.Intn(2_000_001)-1_000_000))
	}
	for _, x := range xs {
		x0 := rng.Uint64()
		x1 := uint64(x) - x0
		r := rng.Uint64()
		gBits := append(Bits64(x0), Bits64(-r)...)
		outBits := garbledEval(t, c, gBits, Bits64(x1))
		yMinusR := FromBits64(outBits)
		y := int64(yMinusR + r) // reconstruct: evaluator share + garbler share
		want := x
		if want < 0 {
			want = 0
		}
		if y != want {
			t.Errorf("ReLU(%d) reconstructed %d, want %d", x, y, want)
		}
	}
}

// Property: the garbled evaluation of a random small circuit matches the
// plain evaluation.
func TestGarbledMatchesPlainProperty(t *testing.T) {
	f := func(seed int64, gRaw, eRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(4, 4)
		wires := []int{0, 1, 2, 3, 4, 5, 6, 7}
		for i := 0; i < 14; i++ {
			a := wires[rng.Intn(len(wires))]
			x := wires[rng.Intn(len(wires))]
			var out int
			switch rng.Intn(3) {
			case 0:
				out = b.XOR(a, x)
			case 1:
				out = b.AND(a, x)
			default:
				out = b.NOT(a)
			}
			wires = append(wires, out)
		}
		b.Output(wires[len(wires)-4:]...)
		c, err := b.Build()
		if err != nil {
			return false
		}
		gBits := make([]bool, 4)
		eBits := make([]bool, 4)
		for i := 0; i < 4; i++ {
			gBits[i] = gRaw>>uint(i)&1 == 1
			eBits[i] = eRaw>>uint(i)&1 == 1
		}
		g, err := Garble(c)
		if err != nil {
			return false
		}
		gl, err := g.GarblerLabels(nil, gBits)
		if err != nil {
			return false
		}
		el := make([]Label, 4)
		for i, bit := range eBits {
			z, o, err := g.EvalLabelPair(i)
			if err != nil {
				return false
			}
			if bit {
				el[i] = o
			} else {
				el[i] = z
			}
		}
		got, err := new(Evaluator).Evaluate(c, g.Public(), gl, el)
		if err != nil {
			return false
		}
		want := evalPlain(c, gBits, eBits)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

var (
	otOnce sync.Once
	otCtx  *OT
	otErr  error
)

func sharedOT(t *testing.T) *OT {
	otOnce.Do(func() { otCtx, otErr = NewOT(256) })
	if otErr != nil {
		t.Fatal(otErr)
	}
	return otCtx
}

func TestOTTransfersCorrectLabel(t *testing.T) {
	ot := sharedOT(t)
	var m0, m1 Label
	for i := range m0 {
		m0[i], m1[i] = byte(i), byte(255-i)
	}
	for _, b := range []bool{false, true} {
		choice, err := ot.Choose(b)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := Transfer(ot.PublicKey(), choice, m0, m1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ot.Receive(reply)
		if err != nil {
			t.Fatal(err)
		}
		want := m0
		if b {
			want = m1
		}
		if got != want {
			t.Errorf("OT(b=%v) returned wrong label", b)
		}
	}
}

// TestEndToEndWithOT runs the ReLU circuit with every evaluator label
// obtained through its own base oblivious transfer: two ciphertexts per
// input bit, the flow an OT extension replaces.
func TestEndToEndWithOT(t *testing.T) {
	c, err := ReLUShares()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Garble(c)
	if err != nil {
		t.Fatal(err)
	}
	ot := sharedOT(t)
	rng := rand.New(rand.NewSource(12))
	x := int64(-4321)
	x0 := rng.Uint64()
	x1 := uint64(x) - x0
	r := rng.Uint64()
	gl, err := g.GarblerLabels(nil, append(Bits64(x0), Bits64(-r)...))
	if err != nil {
		t.Fatal(err)
	}
	el := make([]Label, c.NEval)
	for i, b := range Bits64(x1) {
		choice, err := ot.Choose(b)
		if err != nil {
			t.Fatal(err)
		}
		m0, m1, err := g.EvalLabelPair(i)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := Transfer(ot.PublicKey(), choice, m0, m1)
		if err != nil {
			t.Fatal(err)
		}
		if el[i], err = ot.Receive(reply); err != nil {
			t.Fatal(err)
		}
	}
	out, err := new(Evaluator).Evaluate(c, g.Public(), gl, el)
	if err != nil {
		t.Fatal(err)
	}
	y := int64(FromBits64(out) + r)
	if y != 0 { // ReLU(-4321) = 0
		t.Errorf("ReLU(-4321) = %d", y)
	}
}

// TestHalfGatesTwoRowsPerAND: the garbled tables are one two-row entry
// per AND gate and nothing for the free XOR and NOT gates.
func TestHalfGatesTwoRowsPerAND(t *testing.T) {
	c, err := ReLUShares()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Garble(c)
	if err != nil {
		t.Fatal(err)
	}
	if tables := g.Public().Tables; len(tables) != c.ANDCount() || cap(tables) != len(tables) {
		t.Errorf("%d tables (capacity %d) for %d AND gates", len(tables), cap(tables), c.ANDCount())
	}
}

// TestRegarbleIsFreshAndInPlace: garbling again draws a new offset and new
// labels into the same storage, allocates nothing, and the new garbling
// still evaluates correctly while the old one's tables are gone.
func TestRegarbleIsFreshAndInPlace(t *testing.T) {
	c, err := ReLUShares()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Garble(c)
	if err != nil {
		t.Fatal(err)
	}
	delta, first := g.delta, g.Public().Tables[0]
	tables := &g.Public().Tables[0]
	if allocs := testing.AllocsPerRun(3, func() {
		if err := g.Regarble(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Regarble allocated %v times", allocs)
	}
	if g.delta == delta || g.Public().Tables[0] == first || &g.Public().Tables[0] != tables {
		t.Error("Regarble kept the old offset or table, or moved the tables")
	}
	rng := rand.New(rand.NewSource(31))
	var ev Evaluator
	for _, x := range []int64{777, -777} {
		if err := g.Regarble(); err != nil {
			t.Fatal(err)
		}
		x0, r := rng.Uint64(), rng.Uint64()
		gl, err := g.GarblerLabels(nil, append(Bits64(x0), Bits64(-r)...))
		if err != nil {
			t.Fatal(err)
		}
		el := make([]Label, c.NEval)
		for i, b := range Bits64(uint64(x) - x0) {
			m0, m1, err := g.EvalLabelPair(i)
			if err != nil {
				t.Fatal(err)
			}
			el[i] = m0
			if b {
				el[i] = m1
			}
		}
		out, err := ev.Evaluate(c, g.Public(), gl, el)
		if err != nil {
			t.Fatal(err)
		}
		if y, want := int64(FromBits64(out)+r), max(x, 0); y != want {
			t.Errorf("ReLU(%d) after Regarble = %d", x, y)
		}
	}
}

func TestHalfGatesValidation(t *testing.T) {
	bad := &Circuit{NGarbler: 0, NEval: 0}
	if _, err := Garble(bad); err == nil {
		t.Error("inputless circuit garbled")
	}
	b := NewBuilder(1, 1)
	b.Output(b.AND(0, 1))
	c, _ := b.Build()
	g, err := Garble(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.GarblerLabels(nil, []bool{true, false}); err == nil {
		t.Error("wrong garbler bit count accepted")
	}
	if _, _, err := g.EvalLabelPair(5); err == nil {
		t.Error("out-of-range eval input accepted")
	}
	if _, err := new(Evaluator).Evaluate(c, g.Public(), nil, nil); err == nil {
		t.Error("missing labels accepted")
	}
}
