package experiments

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"strings"
	"time"

	"ppstream/internal/paillier"
	"ppstream/internal/qnn"
)

// KernelRow is one key-size point of the linear-kernel benchmark: average
// per-layer latency of the two-phase kernel (shared inverses + interleaved
// multi-exponentiation, blinded outputs) against the pre-kernel row-by-row
// reference, over a fully-connected layer with ~60% negative weights.
// Replies is how many ciphertexts the layer's Rows outputs would leave the
// model provider in as a protocol round at this key size.
type KernelRow struct {
	KeyBits int
	Kernel  time.Duration
	Ref     time.Duration
	Replies int
}

// Speedup is the reference-to-kernel latency ratio.
func (r KernelRow) Speedup() float64 {
	if r.Kernel <= 0 {
		return 0
	}
	return float64(r.Ref) / float64(r.Kernel)
}

// KernelResult holds the benchmark's series. SlotBits is the reply slot
// width the layer's output bound implies.
type KernelResult struct {
	Rows, Cols int
	Reps       int
	SlotBits   int
	Series     []KernelRow
}

// Kernel benchmarks the homomorphic linear kernel against the scalar
// reference for each key size: a 32×128 layer with 16–17-bit weight
// magnitudes, ~60% of them negative — the post-scaling regime where the
// reference pays one ModInverse per negative weight per row. Both paths
// are checked to decrypt identically before timing.
func Kernel(keyBits []int, reps int) (*KernelResult, error) {
	if len(keyBits) == 0 {
		keyBits = []int{256, 512, 1024}
	}
	if reps <= 0 {
		reps = 3
	}
	const rows, cols = 32, 128
	res := &KernelResult{Rows: rows, Cols: cols, Reps: reps}
	rng := mrand.New(mrand.NewSource(99))
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
	fbias := make([]float64, rows)
	for o := range bias {
		bias[o] = rng.Int63n(1 << 20)
		fbias[o] = float64(bias[o])
	}
	res.SlotBits = 1 + qnn.StageBound([]qnn.Op{&qnn.QFC{F: 1, W: w, B: fbias}}).BitLen()
	for _, bits := range keyBits {
		key, err := paillier.GenerateKey(rand.Reader, bits)
		if err != nil {
			return nil, fmt.Errorf("experiments: kernel keygen %d: %w", bits, err)
		}
		xs := make([]*paillier.Ciphertext, cols)
		for i := range xs {
			xs[i], err = key.EncryptInt64(rand.Reader, rng.Int63n(2000)-1000)
			if err != nil {
				return nil, err
			}
		}
		// Correctness gate before timing.
		got, err := paillier.MatVecScaled(&key.PublicKey, w, bias, xs, 1)
		if err != nil {
			return nil, err
		}
		want, err := paillier.MatVecScaledRef(&key.PublicKey, w, bias, xs, 1)
		if err != nil {
			return nil, err
		}
		for o := range got {
			g, err := key.Decrypt(got[o])
			if err != nil {
				return nil, err
			}
			wv, err := key.Decrypt(want[o])
			if err != nil {
				return nil, err
			}
			if g.Cmp(wv) != 0 {
				return nil, fmt.Errorf("experiments: kernel differential failure at %d bits row %d", bits, o)
			}
		}
		row := KernelRow{KeyBits: bits, Replies: key.PackedLen(rows, res.SlotBits)}
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			if _, err := paillier.MatVecScaled(&key.PublicKey, w, bias, xs, 1); err != nil {
				return nil, err
			}
			row.Kernel += time.Since(start)
			start = time.Now()
			if _, err := paillier.MatVecScaledRef(&key.PublicKey, w, bias, xs, 1); err != nil {
				return nil, err
			}
			row.Ref += time.Since(start)
		}
		row.Kernel /= time.Duration(reps)
		row.Ref /= time.Duration(reps)
		res.Series = append(res.Series, row)
	}
	return res, nil
}

// Render formats the benchmark as a table.
func (r *KernelResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Linear kernel: %dx%d FC layer, ~60%% negative 16-17 bit weights, avg of %d reps\n", r.Rows, r.Cols, r.Reps)
	fmt.Fprintf(&b, "%-8s  %12s  %12s  %8s  %8s  %10s\n", "keybits", "kernel", "reference", "speedup", "outputs", "reply cts")
	for _, row := range r.Series {
		fmt.Fprintf(&b, "%-8d  %12s  %12s  %7.2fx  %8d  %10d\n",
			row.KeyBits, row.Kernel.Round(time.Microsecond), row.Ref.Round(time.Microsecond), row.Speedup(), r.Rows, row.Replies)
	}
	fmt.Fprintf(&b, "reply cts: the %d outputs as one protocol round's packed reply (%d-bit slots)\n", r.Rows, r.SlotBits)
	return b.String()
}
