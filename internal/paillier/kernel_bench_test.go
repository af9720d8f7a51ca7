package paillier

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"testing"
)

// benchShape is one layer shape the kernel benchmarks run: between them
// the two put a workload on each side of the strategy choice.
type benchShape struct {
	name       string
	rows, cols int
	// weight draws one weight.
	weight func(rng *mrand.Rand) int64
}

var benchShapes = []benchShape{
	// Few short rows of wide weights, ~60% negative at 16–17 bits: the
	// post-scaling regime where the pre-kernel path pays one ModInverse per
	// negative weight per row, and where the count picks tables.
	{"32x128", 32, 128, func(rng *mrand.Rand) int64 {
		mag := rng.Int63n(1<<17-1<<16) + 1<<16
		if rng.Intn(10) < 6 {
			mag = -mag
		}
		return mag
	}},
	// Long rows of narrow weights, signed and at most 4 bits, as MNIST's
	// first layer quantizes at factor 100: a column's table would serve 64
	// rows at most, and the count picks buckets.
	{"64x784", 64, 784, func(rng *mrand.Rand) int64 { return rng.Int63n(31) - 15 }},
}

// layer builds the shape's weights, biases and encrypted inputs.
func (sh benchShape) layer(b *testing.B) (*PrivateKey, [][]int64, []int64, []*Ciphertext) {
	b.Helper()
	k := key(b)
	rng := mrand.New(mrand.NewSource(42))
	w := make([][]int64, sh.rows)
	for o := range w {
		w[o] = make([]int64, sh.cols)
		for i := range w[o] {
			w[o][i] = sh.weight(rng)
		}
	}
	bias := make([]int64, sh.rows)
	for o := range bias {
		bias[o] = rng.Int63n(1 << 20)
	}
	xs := make([]*Ciphertext, sh.cols)
	for i := range xs {
		ct, err := k.PublicKey.EncryptInt64(rand.Reader, rng.Int63n(2000)-1000)
		if err != nil {
			b.Fatal(err)
		}
		xs[i] = ct
	}
	return k, w, bias, xs
}

// forShapes runs one sub-benchmark per shape.
func forShapes(b *testing.B, run func(b *testing.B, k *PrivateKey, w [][]int64, bias []int64, xs []*Ciphertext)) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			k, w, bias, xs := sh.layer(b)
			b.ReportAllocs()
			b.ResetTimer()
			run(b, k, w, bias, xs)
		})
	}
}

// BenchmarkMatVecRound measures what a protocol round runs on the layer:
// the kernel's rows (sign split, counted strategy, batched inversion),
// then Pack into the reply at the slot width the layer's values need,
// with one public r^n computed inline per reply ciphertext.
func BenchmarkMatVecRound(b *testing.B) {
	forShapes(b, func(b *testing.B, k *PrivateKey, w [][]int64, bias []int64, xs []*Ciphertext) {
		rows := make([]Row, len(w))
		var bound uint64 // the largest |row value| over inputs in ±1000
		for o := range rows {
			rows[o] = Row{W: w[o], Bias: big.NewInt(bias[o])}
			v := weightMagnitude(bias[o])
			for _, wt := range w[o] {
				v += 1000 * weightMagnitude(wt)
			}
			bound = max(bound, v)
		}
		slotBits := bits.Len64(bound) + 1
		ev := NewEvaluator(&k.PublicKey, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := ev.Rows(xs, rows)
			if err == nil {
				_, err = ev.Pack(out, slotBits, 1)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMatVecScaledRef is the pre-kernel row-by-row baseline
// (per-weight exponentiations, inverses recomputed per row, unblinded).
func BenchmarkMatVecScaledRef(b *testing.B) {
	forShapes(b, func(b *testing.B, k *PrivateKey, w [][]int64, bias []int64, xs []*Ciphertext) {
		for i := 0; i < b.N; i++ {
			if _, err := MatVecScaledRef(&k.PublicKey, w, bias, xs, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMatVecRows prices each strategy alone on each shape — unblinded
// rows, as the protocol's stages evaluate them — and reports the count
// that would have chosen between them.
func BenchmarkMatVecRows(b *testing.B) {
	for _, s := range []Strategy{Tables, Buckets} {
		b.Run(s.String(), func(b *testing.B) {
			forShapes(b, func(b *testing.B, k *PrivateKey, w [][]int64, bias []int64, xs []*Ciphertext) {
				rows := make([]Row, len(w))
				for o := range rows {
					rows[o] = Row{W: w[o], Bias: big.NewInt(bias[o])}
				}
				costs, err := countRows(len(xs), rows, xs, k.N2)
				if err != nil {
					b.Fatal(err)
				}
				ev := NewEvaluator(&k.PublicKey, nil)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ev.rows(xs, rows, s); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(costs.cheapest(s).MulMods), "mulmods/op")
			})
		})
	}
}

// BenchmarkBlinding prices one blinding factor from each source: the
// public r^n mod n² (one full-size exponentiation) against the key
// holder's CRT sampler (two half-size ones), at the benchmark's key sizes.
func BenchmarkBlinding(b *testing.B) {
	for _, bits := range []int{256, 512, 1024} {
		k, err := GenerateKey(rand.Reader, bits)
		if err != nil {
			b.Fatal(err)
		}
		for _, src := range []struct {
			name  string
			fresh func(io.Reader) (*big.Int, error)
		}{
			{"public", k.PublicKey.freshBlinding},
			{"keyholder", k.freshBlinding},
		} {
			b.Run(fmt.Sprintf("%s/%d", src.name, bits), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := src.fresh(nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPack prices getting one slot-full of rows to the data provider
// both ways, at the benchmark's key sizes and a 77-bit slot: "packed" is
// Pack — S−1 shifts of 77 squarings and ONE blinding — and "blinded" is
// what it replaced, a blinding factor per row.
func BenchmarkPack(b *testing.B) {
	const slotBits = 77
	for _, bits := range []int{256, 512, 1024} {
		k, err := GenerateKey(rand.Reader, bits)
		if err != nil {
			b.Fatal(err)
		}
		rows := make([]*Ciphertext, k.Slots(slotBits))
		for i := range rows {
			if rows[i], err = k.Encrypt(rand.Reader, big.NewInt(int64(i-3))); err != nil {
				b.Fatal(err)
			}
		}
		ev := NewEvaluator(&k.PublicKey, nil)
		b.Run(fmt.Sprintf("packed/%d", bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Pack(rows, slotBits, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("blinded/%d", bits), func(b *testing.B) {
			b.ReportAllocs()
			mm, dst := ev.modMul(), new(big.Int)
			for i := 0; i < b.N; i++ {
				for _, row := range rows {
					rn, _, err := ev.blinding()
					if err != nil {
						b.Fatal(err)
					}
					mm.mul(dst, row.c, rn)
				}
			}
		})
	}
}

// BenchmarkModMul prices one multiplication modulo n² at 256–2048-bit
// keys two ways: "quorem" is the helper's body before it stopped dividing
// (the product into reused scratch, QuoRem into the destination), and
// "reciprocal" is modMul.
func BenchmarkModMul(b *testing.B) {
	ordinary, _ := testModuli()
	for _, m := range ordinary {
		rng := mrand.New(mrand.NewSource(7))
		x, y, dst := new(big.Int).Rand(rng, m), new(big.Int).Rand(rng, m), new(big.Int)
		b.Run(fmt.Sprintf("quorem/%d", (m.BitLen()+1)/2), func(b *testing.B) {
			var prod, quo big.Int
			for i := 0; i < b.N; i++ {
				prod.Mul(x, y)
				quo.QuoRem(&prod, m, dst)
			}
		})
		b.Run(fmt.Sprintf("reciprocal/%d", (m.BitLen()+1)/2), func(b *testing.B) {
			mm := modMul{m: m, mu: reciprocal(m)}
			for i := 0; i < b.N; i++ {
				mm.mul(dst, x, y)
			}
		})
	}
}

// BenchmarkPackShift prices moving Pack's accumulator up one slot — its
// 2^W-th power — at each benchmark workload's key size and a slot width
// its stages chain to: "squarings" is what packGroup runs, W squarings
// through modMul, and "exp" is the big.Int.Exp call they replaced, which
// sets up a Montgomery form and a window table for every call.
func BenchmarkPackShift(b *testing.B) {
	for _, c := range []struct{ bits, slotBits int }{{256, 18}, {512, 22}, {1024, 23}} {
		k := keyOfBits(b, c.bits)
		x, err := k.Encrypt(rand.Reader, big.NewInt(1))
		if err != nil {
			b.Fatal(err)
		}
		acc := new(big.Int)
		b.Run(fmt.Sprintf("squarings/%d/W%d", c.bits, c.slotBits), func(b *testing.B) {
			mm := NewEvaluator(&k.PublicKey, nil).modMul()
			for i := 0; i < b.N; i++ {
				acc.Set(x.c)
				for s := 0; s < c.slotBits; s++ {
					mm.mul(acc, acc, acc)
				}
			}
		})
		b.Run(fmt.Sprintf("exp/%d/W%d", c.bits, c.slotBits), func(b *testing.B) {
			shift := new(big.Int).Lsh(one, uint(c.slotBits))
			for i := 0; i < b.N; i++ {
				acc.Exp(x.c, shift, k.N2)
			}
		})
	}
}
