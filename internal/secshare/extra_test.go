package secshare

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: a private dot product over values at scale 2^16, truncated
// by 16 bits, is within one of the exact sum shifted right by 16 — a
// row of the EzPC-style baseline's linear layers.
func TestDotPrivateProperty(t *testing.T) {
	f := func(seed int64, wRaw, xRaw []int16) bool {
		n := min(len(wRaw), len(xRaw), 32)
		e := NewEngine(seed)
		rng := rand.New(rand.NewSource(seed))
		w := make([]int32, n)
		xs := make([]Shares, n)
		var want int64
		for i := 0; i < n; i++ {
			w[i] = int32(wRaw[i])
			xs[i] = Split(rng, uint64(int64(xRaw[i])))
			want += int64(w[i]) * int64(xRaw[i])
		}
		dot, err := e.DotPrivateInt(w, xs, nil)
		if err != nil {
			return false
		}
		got := SignedOfRing(Truncate(dot, 16).Reconstruct())
		want >>= 16
		return got-want >= -1 && got-want <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDealerDeterminism(t *testing.T) {
	a := NewDealer(5)
	b := NewDealer(5)
	for i := 0; i < 10; i++ {
		ta, tb := a.Triple(), b.Triple()
		if ta.A.Reconstruct() != tb.A.Reconstruct() || ta.C.Reconstruct() != tb.C.Reconstruct() {
			t.Fatal("dealer not deterministic for equal seeds")
		}
		if ta.A.Reconstruct()*ta.B.Reconstruct() != ta.C.Reconstruct() {
			t.Fatal("triple invariant c = a·b violated")
		}
	}
}
