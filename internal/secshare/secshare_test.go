package secshare

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 3.14159, -123.456, 0.0001} {
		got := Decode(Encode(v))
		if math.Abs(got-v) > 1.0/float64(uint64(1)<<FracBits)+1e-12 {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestSplitReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		v := rng.Uint64()
		s := Split(rng, v)
		if s.Reconstruct() != v {
			t.Fatalf("reconstruct %d != %d", s.Reconstruct(), v)
		}
		if s.S[0] == v {
			// possible but astronomically unlikely repeatedly; single
			// occurrence fine, so only check shares are not trivially the value
			continue
		}
	}
}

// Property: sharing hides nothing structurally — reconstruct inverts
// split for random values and seeds.
func TestSplitReconstructProperty(t *testing.T) {
	f := func(seed int64, v uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		return Split(rng, v).Reconstruct() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddConst(t *testing.T) {
	e := NewEngine(2)
	a := e.ShareVec([]float64{1.5, -2})
	c := e.AddConst(a[0], Encode(10))
	if math.Abs(Decode(c.Reconstruct())-11.5) > 1e-3 {
		t.Errorf("AddConst = %v", Decode(c.Reconstruct()))
	}
}

func TestMulVecBeaver(t *testing.T) {
	e := NewEngine(3)
	x := e.ShareVec([]float64{1.5, -2.25, 0, 7})
	y := e.ShareVec([]float64{2, 3, 5, -0.5})
	prod, err := e.MulVec(x, y)
	if err != nil {
		t.Fatal(err)
	}
	got := e.OpenVec(prod)
	want := []float64{3, -6.75, 0, -3.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-3 {
			t.Errorf("MulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if e.Stats.TriplesUsed != 4 {
		t.Errorf("triples used %d, want 4", e.Stats.TriplesUsed)
	}
	if e.Stats.Rounds == 0 || e.Stats.OpenedWords == 0 {
		t.Error("communication not accounted")
	}
	if _, err := e.MulVec(x, y[:2]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestDotAndMatVec(t *testing.T) {
	e := NewEngine(4)
	x := e.ShareVec([]float64{1, -2, 3})
	dot, err := e.DotShared(x, []float64{0.5, 0.25, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := Decode(dot.Reconstruct())
	want := 0.5 - 0.5 + 6 + 1
	if math.Abs(got-want) > 1e-3 {
		t.Errorf("Dot = %v, want %v", got, want)
	}
	w := [][]float64{{1, 0, 0}, {0, 1, 0}, {1, 1, 1}}
	bias := []float64{0, 10, -1}
	out, err := e.MatVec(w, bias, x)
	if err != nil {
		t.Fatal(err)
	}
	opened := e.OpenVec(out)
	wantVec := []float64{1, 8, 1}
	for i := range wantVec {
		if math.Abs(opened[i]-wantVec[i]) > 1e-3 {
			t.Errorf("MatVec[%d] = %v, want %v", i, opened[i], wantVec[i])
		}
	}
	if _, err := e.DotShared(x, []float64{1}, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := e.MatVec(w, []float64{1}, x); err == nil {
		t.Error("bias mismatch accepted")
	}
}

func TestSquareVec(t *testing.T) {
	e := NewEngine(5)
	x := e.ShareVec([]float64{3, -4, 0.5})
	sq, err := e.SquareVec(x)
	if err != nil {
		t.Fatal(err)
	}
	got := e.OpenVec(sq)
	want := []float64{9, 16, 0.25}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-2 {
			t.Errorf("Square[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// Property: Beaver multiplication matches plain multiplication for
// moderate fixed-point values.
func TestBeaverProperty(t *testing.T) {
	f := func(seed int64, aRaw, bRaw int16) bool {
		e := NewEngine(seed)
		a := float64(aRaw) / 64
		b := float64(bRaw) / 64
		x := e.ShareVec([]float64{a})
		y := e.ShareVec([]float64{b})
		prod, err := e.MulVec(x, y)
		if err != nil {
			return false
		}
		got := e.OpenVec(prod)[0]
		return math.Abs(got-a*b) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
