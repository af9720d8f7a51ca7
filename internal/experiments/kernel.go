package experiments

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"strings"
	"time"

	"ppstream/internal/nn"
	"ppstream/internal/paillier"
	"ppstream/internal/qnn"
	"ppstream/internal/tensor"
)

// KernelRow is one (shape, key size) point of the linear-kernel benchmark:
// per-layer latency, the fastest of the sweeps, of what a protocol round
// runs on the layer — the kernel's rows (sign split, counted strategy,
// batched inversion), packed into the reply with one inline blinding per
// reply ciphertext — against the pre-kernel row-by-row reference, and the
// plan the kernel's count picked for the rows: its strategy and digit
// width, and the modular multiplications and inversions it predicted,
// which are what a cost meter reads afterwards. Replies is how many
// ciphertexts the packed reply has at this key size.
type KernelRow struct {
	KeyBits     int
	Kernel      time.Duration
	Ref         time.Duration
	Replies     int
	Strategy    string
	Window      uint
	MulMods     uint64
	ModInverses uint64
}

// Speedup is the reference-to-kernel latency ratio.
func (r KernelRow) Speedup() float64 {
	if r.Kernel <= 0 {
		return 0
	}
	return float64(r.Ref) / float64(r.Kernel)
}

// KernelShape is one layer shape's series. SlotBits is the reply slot
// width the layer's output bound implies.
type KernelShape struct {
	Rows, Cols int
	Weights    string
	SlotBits   int
	Series     []KernelRow
}

// KernelResult holds the benchmark's shapes.
type KernelResult struct {
	Shapes []KernelShape
}

// kernelShapes are the two sides of the kernel's strategy choice, as in
// internal/paillier's BenchmarkMatVec*: few short rows of wide weights —
// the post-scaling regime where the reference pays one ModInverse per
// negative weight per row, and the count picks power tables — and long
// rows of narrow weights, as MNIST's first layer quantizes at factor 100,
// where it picks buckets.
var kernelShapes = []struct {
	rows, cols int
	weights    string
	weight     func(rng *mrand.Rand) int64
}{
	{32, 128, "~60% negative, 16-17 bits", func(rng *mrand.Rand) int64 {
		mag := rng.Int63n(1<<17-1<<16) + 1<<16
		if rng.Intn(10) < 6 {
			mag = -mag
		}
		return mag
	}},
	{64, 784, "signed, at most 4 bits", func(rng *mrand.Rand) int64 { return rng.Int63n(31) - 15 }},
}

// kernelInputMax bounds the benchmark's encrypted inputs.
const kernelInputMax = 1000

// kernelSlotBits sizes the layer's reply slots the way a serving round's
// are: the integer layer as a one-stage network at factor 1 whose declared
// input domain is the benchmark's, through the protocol's stage walk.
func kernelSlotBits(w [][]int64, bias []int64) (int, error) {
	fc := &nn.FC{LayerName: "fc", W: tensor.Zeros(len(w), len(w[0])), B: tensor.Zeros(len(w))}
	for o, row := range w {
		fc.B.Data()[o] = float64(bias[o])
		for i, v := range row {
			fc.W.Set(float64(v), o, i)
		}
	}
	net, err := nn.NewNetwork("kernel-bench", tensor.Shape{len(w[0])}, fc, nn.NewSoftMax("softmax"))
	if err != nil {
		return 0, err
	}
	merged, err := nn.Merge(net)
	if err != nil {
		return 0, err
	}
	stages, err := qnn.Walk(merged, kernelInputMax, 1)
	if err != nil {
		return 0, err
	}
	return stages[0].SlotBits(), nil
}

// Kernel benchmarks the homomorphic linear kernel, Rows then Pack, against
// the scalar reference for each shape and key size. Before timing, the
// unpacked reply is checked against the reference rows' decryptions; then
// each path is one paillier.Sweep trial.
func Kernel(keyBits []int) (*KernelResult, error) {
	if len(keyBits) == 0 {
		keyBits = []int{256, 512, 1024}
	}
	res := &KernelResult{}
	rng := mrand.New(mrand.NewSource(99))
	keys := make([]*paillier.PrivateKey, len(keyBits))
	for i, bits := range keyBits {
		var err error
		if keys[i], err = paillier.GenerateKey(rand.Reader, bits); err != nil {
			return nil, fmt.Errorf("experiments: kernel keygen %d: %w", bits, err)
		}
	}
	for _, sh := range kernelShapes {
		w := make([][]int64, sh.rows)
		for o := range w {
			w[o] = make([]int64, sh.cols)
			for i := range w[o] {
				w[o][i] = sh.weight(rng)
			}
		}
		bias := make([]int64, sh.rows)
		rows := make([]paillier.Row, sh.rows)
		for o := range bias {
			bias[o] = rng.Int63n(1 << 20)
			rows[o] = paillier.Row{W: w[o], Bias: big.NewInt(bias[o])}
		}
		slotBits, err := kernelSlotBits(w, bias)
		if err != nil {
			return nil, err
		}
		shape := KernelShape{Rows: sh.rows, Cols: sh.cols, Weights: sh.weights, SlotBits: slotBits}
		for _, key := range keys {
			xs := make([]*paillier.Ciphertext, sh.cols)
			for i := range xs {
				var err error
				if xs[i], err = key.EncryptInt64(rand.Reader, rng.Int63n(2*kernelInputMax)-kernelInputMax); err != nil {
					return nil, err
				}
			}
			ev := paillier.NewEvaluator(&key.PublicKey, nil)
			round := func() (*paillier.CipherTensor, error) {
				out, err := ev.Rows(xs, rows)
				if err != nil {
					return nil, err
				}
				return ev.Pack(out, slotBits, 1)
			}
			// Correctness gate before timing: the reply unpacks to what the
			// reference rows decrypt to.
			packed, err := round()
			if err != nil {
				return nil, err
			}
			got, err := key.Unpack(packed, slotBits, sh.rows, 1)
			if err != nil {
				return nil, err
			}
			want, err := paillier.MatVecScaledRef(&key.PublicKey, w, bias, xs, 1)
			if err != nil {
				return nil, err
			}
			for o := range want {
				wv, err := key.Decrypt(want[o])
				if err != nil {
					return nil, err
				}
				if got.AtFlat(o).Cmp(wv) != 0 {
					return nil, fmt.Errorf("experiments: kernel differential failure at %dx%d, %d bits, row %d", sh.rows, sh.cols, key.Bits(), o)
				}
			}
			plan, err := paillier.CountRows(len(xs), rows)
			if err != nil {
				return nil, err
			}
			row := KernelRow{KeyBits: key.Bits(), Replies: packed.Size(),
				Strategy: plan.Strategy.String(), Window: plan.Window, MulMods: plan.MulMods, ModInverses: plan.ModInverses}
			var kernel, ref float64
			if err := paillier.Sweep([]paillier.Trial{
				{Unit: &kernel, Ops: 1, Run: func() error {
					_, err := round()
					return err
				}},
				{Unit: &ref, Ops: 1, Run: func() error {
					_, err := paillier.MatVecScaledRef(&key.PublicKey, w, bias, xs, 1)
					return err
				}},
			}); err != nil {
				return nil, err
			}
			row.Kernel, row.Ref = seconds(kernel), seconds(ref)
			shape.Series = append(shape.Series, row)
		}
		res.Shapes = append(res.Shapes, shape)
	}
	return res, nil
}

// Render formats the benchmark as one table per shape.
func (r *KernelResult) Render() string {
	var b strings.Builder
	for _, sh := range r.Shapes {
		fmt.Fprintf(&b, "Linear kernel: %dx%d FC layer, weights %s, fastest of the sweeps\n", sh.Rows, sh.Cols, sh.Weights)
		fmt.Fprintf(&b, "%-8s  %12s  %12s  %8s  %-10s  %9s  %10s  %10s\n", "keybits", "kernel", "reference", "speedup", "strategy", "mulmods", "inversions", "reply cts")
		for _, row := range sh.Series {
			fmt.Fprintf(&b, "%-8d  %12s  %12s  %7.2fx  %-10s  %9d  %10d  %10d\n",
				row.KeyBits, row.Kernel.Round(time.Microsecond), row.Ref.Round(time.Microsecond), row.Speedup(),
				fmt.Sprintf("%s/%d", row.Strategy, row.Window), row.MulMods, row.ModInverses, row.Replies)
		}
		fmt.Fprintf(&b, "strategy/window, mulmods, inversions: what the kernel's count picked and predicted for its %d rows (packing them is extra)\n", sh.Rows)
		fmt.Fprintf(&b, "kernel: the rows packed into reply cts ciphertexts (%d-bit slots), one inline blinding each\n\n", sh.SlotBits)
	}
	return b.String()
}
