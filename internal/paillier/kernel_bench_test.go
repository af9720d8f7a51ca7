package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"

	"ppstream/internal/obs"
)

// benchLayer builds a rows×cols layer with ~60% negative weights at
// 16–17-bit magnitudes — the post-scaling regime where the pre-kernel path
// pays one ModInverse per negative weight per row.
func benchLayer(b *testing.B, rows, cols int) (*PrivateKey, [][]int64, []int64, []*Ciphertext) {
	b.Helper()
	k := key(b)
	rng := mrand.New(mrand.NewSource(42))
	w := make([][]int64, rows)
	for o := range w {
		w[o] = make([]int64, cols)
		for i := range w[o] {
			mag := rng.Int63n(1<<17-1<<16) + 1<<16
			if rng.Intn(10) < 6 {
				mag = -mag
			}
			w[o][i] = mag
		}
	}
	bias := make([]int64, rows)
	for o := range bias {
		bias[o] = rng.Int63n(1 << 20)
	}
	xs := make([]*Ciphertext, cols)
	for i := range xs {
		ct, err := k.PublicKey.EncryptInt64(rand.Reader, rng.Int63n(2000)-1000)
		if err != nil {
			b.Fatal(err)
		}
		xs[i] = ct
	}
	return k, w, bias, xs
}

const (
	benchRows = 32
	benchCols = 128
)

// BenchmarkMatVecScaled measures the two-phase kernel (shared inverses +
// interleaved multi-exponentiation, blinded outputs).
func BenchmarkMatVecScaled(b *testing.B) {
	k, w, bias, xs := benchLayer(b, benchRows, benchCols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatVecScaled(&k.PublicKey, w, bias, xs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatVecScaledPooled is the kernel with pooled blinding factors —
// the production configuration, where re-randomization is off-path.
func BenchmarkMatVecScaledPooled(b *testing.B) {
	k, w, bias, xs := benchLayer(b, benchRows, benchCols)
	p := NewPool(&k.PublicKey, rand.Reader, 2*benchRows*8, 2)
	defer p.Close()
	ev := NewEvaluator(&k.PublicKey, WithBlinder(p))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.MatVec(w, bias, xs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatVecScaledRef is the pre-kernel row-by-row baseline
// (per-weight exponentiations, inverses recomputed per row, unblinded).
func BenchmarkMatVecScaledRef(b *testing.B) {
	k, w, bias, xs := benchLayer(b, benchRows, benchCols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatVecScaledRef(&k.PublicKey, w, bias, xs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelPrecompute isolates the preprocessing phase: inverses and
// windowed power tables over the input vector.
func BenchmarkKernelPrecompute(b *testing.B) {
	k, w, _, xs := benchLayer(b, benchRows, benchCols)
	ev := NewEvaluator(&k.PublicKey)
	use, maxBits, err := ScanColumnUse(w, benchCols)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.NewLinearKernel(xs, use, benchRows, maxBits, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelDot isolates one row's interleaved multi-exponentiation
// over a prebuilt kernel (no blinding: that is Pack's).
func BenchmarkKernelDot(b *testing.B) {
	k, w, bias, xs := benchLayer(b, benchRows, benchCols)
	ev := NewEvaluator(&k.PublicKey)
	use, maxBits, err := ScanColumnUse(w, benchCols)
	if err != nil {
		b.Fatal(err)
	}
	kern, err := ev.NewLinearKernel(xs, use, benchRows, maxBits, 1)
	if err != nil {
		b.Fatal(err)
	}
	bg := big.NewInt(bias[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kern.Dot(nil, w[0], bg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatVecScaledMetered is BenchmarkMatVecScaledPooled with a cost
// meter attached — compare the two to measure the accounting overhead
// (acceptance bound: < 2%).
func BenchmarkMatVecScaledMetered(b *testing.B) {
	k, w, bias, xs := benchLayer(b, benchRows, benchCols)
	p := NewPool(&k.PublicKey, rand.Reader, 2*benchRows*8, 2)
	defer p.Close()
	var m obs.CostMeter
	ev := NewEvaluator(&k.PublicKey, WithBlinder(p), WithCostMeter(&m))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.MatVec(w, bias, xs, 1); err != nil {
			b.Fatal(err)
		}
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
			name    string
			blinder Blinder
		}{
			{"public", NewRandBlinder(&k.PublicKey, nil)},
			{"keyholder", k.Blinder(nil)},
		} {
			b.Run(fmt.Sprintf("%s/%d", src.name, bits), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := src.blinder.Blinding(); err != nil {
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
		ev := NewEvaluator(&k.PublicKey)
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
			for i := 0; i < b.N; i++ {
				for _, row := range rows {
					if _, err := ev.rerandomize(row); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
