package secshare

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
)

func TestRingOfBig(t *testing.T) {
	cases := []struct {
		in   *big.Int
		want uint64
	}{
		{big.NewInt(0), 0},
		{big.NewInt(1), 1},
		{big.NewInt(-1), ^uint64(0)},
		{big.NewInt(1 << 40), 1 << 40},
		{big.NewInt(-(1 << 40)), ^uint64(1<<40) + 1},
		{new(big.Int).Lsh(big.NewInt(1), 64), 0},
		{new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(7)), 7},
		{new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(1), 64)), 0},
	}
	for _, c := range cases {
		if got := RingOfBig(c.in); got != c.want {
			t.Errorf("RingOfBig(%s) = %d, want %d", c.in, got, c.want)
		}
	}
	// Signed round trip within int64 range.
	rng := mrand.New(mrand.NewSource(5))
	for i := 0; i < 200; i++ {
		v := rng.Int63n(1<<62) - 1<<61
		if got := SignedOfRing(RingOfBig(big.NewInt(v))); got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	}
}

func TestSplitRandomReconstructs(t *testing.T) {
	for _, v := range []uint64{0, 1, ^uint64(0), 1 << 63, 0xdeadbeefcafe} {
		s, err := SplitRandom(rand.Reader, v)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Reconstruct(); got != v {
			t.Fatalf("Reconstruct = %d, want %d", got, v)
		}
	}
	if _, err := SplitRandom(failingReader{}, 1); err == nil {
		t.Fatal("broken entropy source must surface an error")
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errEntropy }

var errEntropy = &entropyErr{}

type entropyErr struct{}

func (*entropyErr) Error() string { return "no entropy" }

// TestDotPrivateIntExact proves the untruncated ring dot product is
// bit-identical to big-integer arithmetic for magnitudes below 2^63 —
// the exactness property the ss-gc backend's differential tests build on.
func TestDotPrivateIntExact(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	e := NewEngine(11)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(24)
		w := make([]int32, n)
		xs := make([]Shares, n)
		ref := big.NewInt(0)
		for j := 0; j < n; j++ {
			// Weights at a ~F=100 scale, inputs at ~F^2: products stay
			// far below 2^63 even summed.
			w[j] = rng.Int31n(20000) - 10000
			if rng.Intn(5) == 0 {
				w[j] = 0 // exercise the zero-weight skip
			}
			xv := rng.Int63n(2_000_000) - 1_000_000
			var err error
			xs[j], err = SplitRandom(rand.Reader, RingOfBig(big.NewInt(xv)))
			if err != nil {
				t.Fatal(err)
			}
			ref.Add(ref, new(big.Int).Mul(big.NewInt(int64(w[j])), big.NewInt(xv)))
		}
		bias := big.NewInt(rng.Int63n(2_000_000_000) - 1_000_000_000)
		ref.Add(ref, bias)

		before := e.Stats.Triples
		got, err := e.DotPrivateInt(w, xs, bias)
		if err != nil {
			t.Fatal(err)
		}
		if sv := SignedOfRing(got.Reconstruct()); sv != ref.Int64() {
			t.Fatalf("trial %d: dot = %d, want %s", trial, sv, ref)
		}
		nonzero := 0
		for _, wj := range w {
			if wj != 0 {
				nonzero++
			}
		}
		if used := e.Stats.Triples - before; used != uint64(nonzero) {
			t.Fatalf("trial %d: %d triples for %d nonzero weights", trial, used, nonzero)
		}
	}
}

func TestDotPrivateIntLengthMismatch(t *testing.T) {
	e := NewEngine(1)
	if _, err := e.DotPrivateInt([]int32{1, 2}, make([]Shares, 3), nil); err == nil {
		t.Fatal("length mismatch must error")
	}
}

// TestMulPrivateIntExact: one private multiplication (a one-weight
// DotPrivateInt without a bias) is exact over the ring for products below
// 2^63.
func TestMulPrivateIntExact(t *testing.T) {
	e := NewEngine(3)
	rng := mrand.New(mrand.NewSource(9))
	for i := 0; i < 100; i++ {
		w := rng.Int63n(1<<20) - 1<<19
		x := rng.Int63n(1<<40) - 1<<39
		xs, err := SplitRandom(rand.Reader, RingOfBig(big.NewInt(x)))
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.DotPrivateInt([]int32{int32(w)}, []Shares{xs}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := SignedOfRing(out.Reconstruct())
		if want := w * x; got != want {
			t.Fatalf("mul %d*%d = %d, want %d", w, x, got, want)
		}
	}
}

// TestScalePrivateIntExact: a one-weight DotPrivateInt — the row a
// quantized affine op gives each element — scales and shifts one sharing
// exactly, costing one triple, and a zero scale costs none.
func TestScalePrivateIntExact(t *testing.T) {
	e := NewEngine(4)
	xs, err := SplitRandom(rand.Reader, RingOfBig(big.NewInt(1234)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		scale int32
		shift *big.Int
		want  int64
	}{{-3, big.NewInt(500), -3*1234 + 500}, {2, nil, 2468}, {0, big.NewInt(-7), -7}} {
		before := e.Stats.Triples
		out, err := e.DotPrivateInt([]int32{c.scale}, []Shares{xs}, c.shift)
		if err != nil {
			t.Fatal(err)
		}
		if got := SignedOfRing(out.Reconstruct()); got != c.want {
			t.Errorf("scale %d shift %v = %d, want %d", c.scale, c.shift, got, c.want)
		}
		if used, want := e.Stats.Triples-before, uint64(min(c.scale*c.scale, 1)); used != want {
			t.Errorf("scale %d used %d triples, want %d", c.scale, used, want)
		}
	}
}
