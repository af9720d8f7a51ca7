package paillier

import (
	"fmt"
	"math/big"
	mrand "math/rand"
	"strings"
	"testing"

	"ppstream/internal/obs"
)

// testModuli returns, for 256/512/1024/2048-bit n, two values of n² each:
// one from a random odd n, and an awkward one on which modMul's quotient
// estimate falls short as often and as far as it can — n just below a
// power of two and 2^(2k) mod n² above 15/16 of n², which makes both
// truncations of the estimate cost nearly a whole unit for operands near
// n². modMul knows nothing of primes, so n need not be a product of two.
func testModuli() (ordinary, awkward []*big.Int) {
	rng := mrand.New(mrand.NewSource(19))
	for _, bits := range []int{256, 512, 1024, 2048} {
		n := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(bits-1)))
		n.SetBit(n, bits-1, 1).SetBit(n, 0, 1)
		ordinary = append(ordinary, n.Mul(n, n))
		for {
			n := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(bits-4)))
			n.Or(n, new(big.Int).Lsh(big.NewInt(15), uint(bits-4))).SetBit(n, 0, 1)
			m := new(big.Int).Mul(n, n)
			r := new(big.Int).Lsh(one, 2*uint(m.BitLen()))
			if r.Mod(r, m).Lsh(r, 4).Quo(r, m).Int64() == 15 {
				awkward = append(awkward, m)
				break
			}
		}
	}
	return ordinary, awkward
}

// refMul is the reference modMul is tested and benchmarked against, and
// what it replaced: the full product, then a division.
func refMul(a, b, m *big.Int) *big.Int {
	t := new(big.Int).Mul(a, b)
	return t.Mod(t, m)
}

// shortfall returns how far below ⌊a·b/m⌋ modMul's quotient estimate
// lands, recomputed from its definition.
func shortfall(a, b, m *big.Int) int {
	k := uint(m.BitLen())
	t := new(big.Int).Mul(a, b)
	est := new(big.Int).Rsh(t, k-1)
	est.Mul(est, reciprocal(m)).Rsh(est, k+1)
	return int(t.Quo(t, m).Sub(t, est).Int64())
}

// TestModMulMatchesMod checks the helper against Mul+Mod over the edges
// of [0, m), random operands and operands that make the estimate short by
// 0, 1 and 2 — every branch of the correction — with dst fresh, aliasing
// a, aliasing b, and all three the same value (the squaring the kernel
// and Pack run most), on ONE helper per modulus so that scratch left by a
// call is what the next one starts from and is never allocated again, and
// with mm.n exact.
func TestModMulMatchesMod(t *testing.T) {
	ordinary, awkward := testModuli()
	for i, m := range append(ordinary, awkward...) {
		t.Run(fmt.Sprintf("%d-bit/%d", m.BitLen(), i), func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(int64(i)))
			mm := modMul{m: m, mu: reciprocal(m)}
			var want uint64
			check := func(a, b *big.Int) {
				t.Helper()
				ref := refMul(a, b, m)
				a0, b0 := new(big.Int).Set(a), new(big.Int).Set(b)
				for _, dst := range []*big.Int{new(big.Int), a0, b0} {
					if mm.mul(dst, a0, b0); dst.Cmp(ref) != 0 {
						t.Fatalf("%x · %x (estimate short by %d) = %x, want %x", a, b, shortfall(a, b, m), dst, ref)
					}
					a0.Set(a)
					b0.Set(b)
				}
				if mm.mul(a0, a0, a0); a0.Cmp(refMul(a, a, m)) != 0 {
					t.Fatalf("%x² (estimate short by %d) = %x, want %x", a, shortfall(a, a, m), a0, refMul(a, a, m))
				}
				if want += 4; mm.n != want {
					t.Fatalf("counted %d multiplications, ran %d", mm.n, want)
				}
			}
			top := new(big.Int).Sub(m, one) // top·top is (n²−1)², the largest product
			edges := []*big.Int{new(big.Int), one, big.NewInt(2), new(big.Int).Rsh(m, 1), new(big.Int).Sub(m, big.NewInt(2)), top}
			for _, a := range edges {
				for _, b := range edges {
					check(a, b)
				}
			}
			for j := 0; j < 200; j++ {
				// Operands of every length, so the scratch shrinks and grows.
				a := new(big.Int).Rand(rng, m)
				b := new(big.Int).Rand(rng, m)
				check(a.Rsh(a, uint(rng.Intn(m.BitLen()))), b)
			}
			if i >= len(ordinary) {
				// Near n² on an awkward modulus the estimate is short by 0, 1
				// and 2 within a few dozen draws each.
				var seen [3]int
				near := new(big.Int).Rsh(m, 5)
				for j := 0; j < 2000; j++ {
					a := new(big.Int).Rand(rng, near)
					b := new(big.Int).Rand(rng, near)
					a.Sub(top, a)
					b.Sub(top, b)
					if s := shortfall(a, b, m); seen[s] < 5 {
						seen[s]++
						check(a, b)
					}
				}
				if seen[0] == 0 || seen[1] == 0 || seen[2] == 0 {
					t.Fatalf("estimates short by 0/1/2 seen %v times: a branch of the correction never ran", seen)
				}
			}
			a, dst := new(big.Int).Rand(rng, m), new(big.Int)
			if allocs := testing.AllocsPerRun(50, func() { mm.mul(dst, a, top) }); allocs != 0 {
				t.Errorf("%v allocations per multiplication once the scratch has grown", allocs)
			}
		})
	}
}

// TestPackCountsWhatRan: Pack's metered multiplications are read from the
// helper that ran them, and are what PackMulMods — the count the engine's
// planner prices a reply at — says they must be, over full, partial and
// one-row groups.
func TestPackCountsWhatRan(t *testing.T) {
	k := key(t)
	for _, slotBits := range []int{2, 18, 23, 77, k.Bits()/2 + 1} {
		s := k.Slots(slotBits)
		for _, count := range []int{1, s, s + 1, 3*s - 1} {
			rows := make([]*Ciphertext, count)
			for i := range rows {
				rows[i], _ = k.encryptWithBlinding(big.NewInt(int64(i%2)), big.NewInt(1))
			}
			var m obs.CostMeter
			ev := NewEvaluator(&k.PublicKey, nil).WithCost(&m)
			if _, err := ev.Pack(rows, slotBits, 2); err != nil {
				t.Fatal(err)
			}
			if got, want := m.Snapshot().MulMods, k.PackMulMods(count, slotBits); got != want {
				t.Errorf("%d rows in %d-bit slots (%d per group): metered %d multiplications, want %d", count, slotBits, s, got, want)
			}
		}
	}
}

// TestRowsAndPackRejectOutOfRange: modMul's two-subtraction correction
// holds only for operands in [0, n²), and FromWire's check does not cover
// a ciphertext built in-process, so Rows and Pack refuse one themselves —
// before any arithmetic, with the meter at zero — while an out-of-range
// input that no non-zero weight reads is as harmless as an unsent one.
func TestRowsAndPackRejectOutOfRange(t *testing.T) {
	k := key(t)
	good := encryptVec(t, k, []int64{1, 2, 3})
	for name, v := range map[string]*big.Int{
		"n²":       k.N2,
		"n²+c":     new(big.Int).Add(k.N2, good[1].c),
		"negative": new(big.Int).Neg(good[1].c),
	} {
		xs := []*Ciphertext{good[0], {c: v}, good[2]}
		var m obs.CostMeter
		ev := NewEvaluator(&k.PublicKey, nil).WithCost(&m)
		for _, s := range []Strategy{Tables, Buckets} {
			if _, err := ev.rows(xs, []Row{{W: []int64{1, 0, 1}}, {W: []int64{2, -5, 0}}}, s); err == nil || !strings.Contains(err.Error(), "outside [0, n²)") {
				t.Errorf("%s, %v: Rows returned %v", name, s, err)
			}
			if _, err := NewEvaluator(&k.PublicKey, nil).rows(xs, []Row{{W: []int64{1, 0, -1}}}, s); err != nil {
				t.Errorf("%s, %v: Rows refused an input under a zero weight: %v", name, s, err)
			}
		}
		// Four rows at one per group: the bad one is not in the first group.
		if _, err := ev.Pack([]*Ciphertext{good[0], good[2], xs[1], good[0]}, k.Bits()/2+1, 1); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: Pack returned %v", name, err)
		}
		if st := m.Snapshot(); !st.IsZero() {
			t.Errorf("%s: arithmetic ran before the rejection: %+v", name, st)
		}
	}
}
