package paillier

// This file implements the model provider's homomorphic linear kernel as a
// two-phase layer evaluation (the exponentiation-dominated hot path of the
// paper's Figs. 1 and 9–11):
//
//  1. a per-input preprocessing pass (LinearKernel construction) computes
//     each ciphertext's n²-inverse at most ONCE and builds small windowed
//     power tables x_i^1..x_i^(2^w−1) (and the same for x_i^{-1} when any
//     row uses a negative weight), shared by every row of the layer;
//  2. a per-row pass (LinearKernel.Dot) evaluates Π_i E(m_i)^{w_i} with
//     interleaved multi-exponentiation (Shamir/Straus): the accumulator is
//     squared once per exponent bit for the WHOLE row rather than once per
//     bit per input, and each non-zero w-bit digit costs one table lookup
//     and one modular multiplication.
//
// A row is NOT re-randomized here: its randomness is only inherited from
// the inputs, and an all-zero row is the deterministic embedding of its
// bias. Rows stay inside the model provider; the one place a ciphertext is
// blinded before it leaves is Evaluator.Pack (pack.go), which folds a
// slot-full of rows into one reply ciphertext and pays one r^n for all of
// them. MatVec, which hands its rows to the caller, blinds each itself.

import (
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"ppstream/internal/obs"
)

// ColumnUse records how a linear layer uses one input column: whether any
// row multiplies it by a positive and/or a negative weight. The kernel
// builds only the power tables a column actually needs.
type ColumnUse uint8

const (
	// UsePos marks a column multiplied by at least one positive weight.
	UsePos ColumnUse = 1 << iota
	// UseNeg marks a column multiplied by at least one negative weight
	// (requires the ciphertext's n²-inverse).
	UseNeg
)

// WeightBits returns the bit length of |w|, safe for math.MinInt64.
func WeightBits(w int64) int { return bits.Len64(weightMagnitude(w)) }

// weightMagnitude returns |w| as a uint64, safe for math.MinInt64.
func weightMagnitude(w int64) uint64 {
	if w >= 0 {
		return uint64(w)
	}
	return uint64(-(w + 1)) + 1
}

// Blinder supplies r^n mod n² blinding factors: to Evaluator.Pack for
// reply re-randomization and to EncryptTensor for fresh encryptions.
// NewRandBlinder and PrivateKey.Blinder compute them inline — the first
// for a party that knows only n, the second for the key holder — and a
// Pool serves either kind precomputed.
type Blinder interface {
	Blinding() (*big.Int, error)
}

// trackedBlinder is the optional Blinder extension cost accounting uses:
// it additionally reports whether the factor came precomputed (a pool
// hit) or had to be exponentiated inline (a miss on the critical path).
// Pool implements it.
type trackedBlinder interface {
	BlindingTracked() (rn *big.Int, pooled bool, err error)
}

// sampler is the inline Blinder: every call computes one factor from
// random through fresh, which is PublicKey.freshBlinding or
// PrivateKey.freshBlinding. modExps is what a call costs, so accounting
// stays honest about which of the two ran: one full-size exponentiation,
// or two half-size ones (counted the way a CRT decryption is).
type sampler struct {
	fresh   func(io.Reader) (*big.Int, error)
	random  io.Reader
	modExps uint64
}

func (s sampler) Blinding() (*big.Int, error) { return s.fresh(s.random) }

// NewRandBlinder returns the public Blinder: each factor is r^n mod n²
// for a fresh r from random (nil means crypto/rand.Reader), one full
// n-bit exponentiation. It is the model provider's fallback when no Pool
// is attached.
func NewRandBlinder(pk *PublicKey, random io.Reader) Blinder { return pk.sampler(random) }

func (pk *PublicKey) sampler(random io.Reader) sampler {
	return sampler{fresh: pk.freshBlinding, random: random, modExps: 1}
}

// Blinder returns the key holder's Blinder: identically distributed
// factors from the CRT sampler (see PrivateKey.freshBlinding), read from
// random (nil means crypto/rand.Reader).
func (sk *PrivateKey) Blinder(random io.Reader) Blinder { return sk.sampler(random) }

func (sk *PrivateKey) sampler(random io.Reader) sampler {
	return sampler{fresh: sk.freshBlinding, random: random, modExps: 2}
}

// draw takes one factor from b for a metered caller. pooled reports a
// precomputed factor; otherwise modExps is the number of exponentiations
// the inline computation just cost (1 for a Blinder from outside this
// package, which can only be a public one).
func draw(b Blinder) (rn *big.Int, pooled bool, modExps uint64, err error) {
	modExps = 1
	switch s := b.(type) {
	case *Pool:
		modExps = s.src.modExps
	case sampler:
		modExps = s.modExps
	}
	if tb, ok := b.(trackedBlinder); ok {
		rn, pooled, err = tb.BlindingTracked()
	} else {
		rn, err = b.Blinding()
	}
	if pooled {
		modExps = 0
	}
	return rn, pooled, modExps, err
}

// KernelMetrics receives kernel phase timings. Either callback may be
// nil. The protocol layer wires these to the "kernel.precompute" and
// "kernel.dot" histograms on the metrics endpoint.
type KernelMetrics struct {
	// Precompute observes one per-layer preprocessing pass.
	Precompute func(time.Duration)
	// Dot observes one per-row multi-exponentiation.
	Dot func(time.Duration)
}

// Evaluator bundles the public key with the blinding supply and kernel
// configuration for model-provider-side homomorphic evaluation. A nil
// blinder defaults to inline crypto/rand factors; attach a Pool to move
// the blinding exponentiations off the critical path.
type Evaluator struct {
	pk      *PublicKey
	blinder Blinder
	window  uint
	metrics atomic.Pointer[KernelMetrics]
	// cost, when non-nil, accumulates the crypto-op counts of every kernel
	// and blinding operation run through this evaluator. Per-request
	// attribution derives a metered view with WithCost rather than mutating
	// a shared evaluator.
	cost *obs.CostMeter
}

// EvalOption configures an Evaluator.
type EvalOption func(*Evaluator)

// WithBlinder sets the blinding factor supply (e.g. a *Pool).
func WithBlinder(b Blinder) EvalOption { return func(ev *Evaluator) { ev.blinder = b } }

// WithWindow forces the multi-exponentiation window width (1..maxWindow);
// 0 keeps the per-layer automatic choice.
func WithWindow(w uint) EvalOption { return func(ev *Evaluator) { ev.window = w } }

// WithMetrics sets the kernel timing callbacks.
func WithMetrics(m KernelMetrics) EvalOption { return func(ev *Evaluator) { ev.metrics.Store(&m) } }

// WithCostMeter attaches a crypto-op cost meter at construction.
func WithCostMeter(m *obs.CostMeter) EvalOption { return func(ev *Evaluator) { ev.cost = m } }

// NewEvaluator creates an evaluator for the given public key.
func NewEvaluator(pk *PublicKey, opts ...EvalOption) *Evaluator {
	ev := &Evaluator{pk: pk}
	for _, o := range opts {
		o(ev)
	}
	if ev.blinder == nil {
		ev.blinder = NewRandBlinder(pk, nil)
	}
	return ev
}

// PublicKey returns the evaluator's key.
func (ev *Evaluator) PublicKey() *PublicKey { return ev.pk }

// SetMetrics replaces the kernel timing callbacks; safe to call while
// kernels are running.
func (ev *Evaluator) SetMetrics(m KernelMetrics) { ev.metrics.Store(&m) }

// WithCost derives an evaluator that shares this one's key, blinding
// supply, window, and timing callbacks but accumulates crypto-op counts
// into m. Sessions keep one shared evaluator and derive a metered view
// per request, so concurrent requests never bleed counts into each other.
func (ev *Evaluator) WithCost(m *obs.CostMeter) *Evaluator {
	d := &Evaluator{pk: ev.pk, blinder: ev.blinder, window: ev.window, cost: m}
	if km := ev.metrics.Load(); km != nil {
		d.metrics.Store(km)
	}
	return d
}

// CostMeter returns the attached cost meter, nil when unmetered.
func (ev *Evaluator) CostMeter() *obs.CostMeter {
	if ev == nil {
		return nil
	}
	return ev.cost
}

// rerandomize multiplies one fresh factor from the evaluator's supply into
// ct, counting the draw and the multiplication into the cost meter.
func (ev *Evaluator) rerandomize(ct *Ciphertext) (*Ciphertext, error) {
	rn, st, err := ev.blinding()
	if err != nil {
		return nil, err
	}
	st.MulMods++
	ev.cost.Add(st)
	return ev.pk.RerandomizeWith(ct, rn), nil
}

// blinding draws one factor and returns what the re-randomization it is
// for costs apart from applying it: a pool hit, or a miss and the inline
// exponentiations on the critical path.
func (ev *Evaluator) blinding() (*big.Int, obs.CostStats, error) {
	rn, pooled, modExps, err := draw(ev.blinder)
	st := obs.CostStats{Rerands: 1, ModExps: modExps}
	if pooled {
		st.PoolHits = 1
	} else {
		st.PoolMisses = 1
	}
	return rn, st, err
}

// maxWindow bounds table memory: 2^6−1 entries per used side per input.
const maxWindow = 6

// pickWindow selects the window width minimizing the estimated modular
// multiplication count: rows·digits·(1−2^{−w}) digit-multiplies per row
// plus (2^w−2) table-build multiplies, amortized over the layer's rows.
// Squarings are ~maxBits per row regardless of w, so they do not affect
// the choice.
func pickWindow(rows, maxBits int) uint {
	if rows < 1 {
		rows = 1
	}
	if maxBits < 1 {
		maxBits = 1
	}
	best, bestCost := uint(1), float64(0)
	for w := 1; w <= maxWindow; w++ {
		digits := (maxBits + w - 1) / w
		nonZero := 1 - 1/float64(uint64(1)<<uint(w))
		cost := float64(rows)*float64(digits)*nonZero + float64(uint64(1)<<uint(w)-2)
		if w == 1 || cost < bestCost {
			best, bestCost = uint(w), cost
		}
	}
	return best
}

// LinearKernel holds the per-input preprocessing of one linear layer
// evaluation: shared inverses and windowed power tables over a fixed
// input ciphertext vector. It is safe for concurrent Dot calls.
type LinearKernel struct {
	ev     *Evaluator
	window uint
	mask   uint64
	// pos[i][d-1] = x_i^d mod n² for d = 1..2^window−1; nil when no row
	// uses column i with a positive weight. neg is the same over x_i^{-1}.
	pos [][]*big.Int
	neg [][]*big.Int
}

// NewLinearKernel runs the preprocessing phase over the layer's input
// ciphertexts: for every column i with use[i] != 0 it computes the
// n²-inverse (once, if needed) and the windowed power tables, in parallel
// across workers goroutines. rows and maxWeightBits size the automatic
// window choice; rows is the number of Dot calls that will share the
// tables.
func (ev *Evaluator) NewLinearKernel(xs []*Ciphertext, use []ColumnUse, rows, maxWeightBits, workers int) (*LinearKernel, error) {
	if len(use) != len(xs) {
		return nil, fmt.Errorf("paillier: kernel use list %d != inputs %d", len(use), len(xs))
	}
	start := time.Now()
	window := ev.window
	if window == 0 {
		window = pickWindow(rows, maxWeightBits)
	}
	if window > maxWindow {
		window = maxWindow
	}
	k := &LinearKernel{
		ev:     ev,
		window: window,
		mask:   uint64(1)<<window - 1,
		pos:    make([][]*big.Int, len(xs)),
		neg:    make([][]*big.Int, len(xs)),
	}
	tableLen := int(k.mask)
	n2 := ev.pk.N2
	var firstErr error
	var mu sync.Mutex
	parallelFor(len(xs), workers, func(i int) {
		u := use[i]
		if u == 0 {
			return
		}
		fail := func(err error) {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
		if xs[i] == nil || xs[i].c == nil {
			fail(fmt.Errorf("paillier: nil ciphertext at %d", i))
			return
		}
		if u&UsePos != 0 {
			k.pos[i] = powerTable(xs[i].c, tableLen, n2)
		}
		if u&UseNeg != 0 {
			inv := new(big.Int).ModInverse(xs[i].c, n2)
			if inv == nil {
				fail(fmt.Errorf("paillier: ciphertext %d not invertible", i))
				return
			}
			k.neg[i] = powerTable(inv, tableLen, n2)
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if ev.cost != nil {
		// The preprocessing cost is deterministic in the usage map: each
		// built table is tableLen−1 modular multiplications, each negative
		// side one modular inversion on top.
		var st obs.CostStats
		for _, u := range use {
			if u&UsePos != 0 {
				st.MulMods += uint64(tableLen - 1)
			}
			if u&UseNeg != 0 {
				st.ModInverses++
				st.MulMods += uint64(tableLen - 1)
			}
		}
		ev.cost.Add(st)
	}
	if m := ev.metrics.Load(); m != nil && m.Precompute != nil {
		m.Precompute(time.Since(start))
	}
	return k, nil
}

// powerTable returns [b, b², …, b^size] mod n².
func powerTable(b *big.Int, size int, n2 *big.Int) []*big.Int {
	t := make([]*big.Int, size)
	t[0] = new(big.Int).Set(b)
	for d := 1; d < size; d++ {
		p := new(big.Int).Mul(t[d-1], b)
		t[d] = p.Mod(p, n2)
	}
	return t
}

// Dot evaluates one row: an encryption of Σ_j w_j·m_{idx[j]} + bias that
// is NOT re-randomized — it must pass through Evaluator.Pack (or be
// blinded by the caller, as MatVec does) before it leaves the model
// provider. idx maps row positions to kernel input columns; a nil idx
// means position j reads column j (and then len(ws) must equal the
// kernel's input count). A nil or zero bias adds nothing.
func (k *LinearKernel) Dot(idx []int, ws []int64, bias *big.Int) (*Ciphertext, error) {
	if idx != nil && len(idx) != len(ws) {
		return nil, fmt.Errorf("paillier: dot index list %d != weights %d", len(idx), len(ws))
	}
	if idx == nil && len(ws) != len(k.pos) {
		return nil, fmt.Errorf("paillier: dot length mismatch: %d inputs vs %d weights", len(k.pos), len(ws))
	}
	start := time.Now()
	n2 := k.ev.pk.N2
	maxBits := 0
	for _, w := range ws {
		if b := WeightBits(w); b > maxBits {
			maxBits = b
		}
	}
	// st batches this row's op counts locally; one atomic Add into the
	// meter at the end keeps accounting off the hot path.
	var st obs.CostStats
	acc := big.NewInt(1)
	if maxBits > 0 {
		digits := (maxBits + int(k.window) - 1) / int(k.window)
		started := false
		for d := digits - 1; d >= 0; d-- {
			if started {
				for s := uint(0); s < k.window; s++ {
					acc.Mul(acc, acc)
					acc.Mod(acc, n2)
				}
				st.MulMods += uint64(k.window)
			}
			shift := uint(d) * k.window
			for j, w := range ws {
				if w == 0 {
					continue
				}
				dig := (weightMagnitude(w) >> shift) & k.mask
				if dig == 0 {
					continue
				}
				col := j
				if idx != nil {
					col = idx[j]
				}
				if col < 0 || col >= len(k.pos) {
					return nil, fmt.Errorf("paillier: dot column %d out of range [0,%d)", col, len(k.pos))
				}
				var tbl []*big.Int
				if w > 0 {
					tbl = k.pos[col]
				} else {
					tbl = k.neg[col]
				}
				if tbl == nil {
					return nil, fmt.Errorf("paillier: column %d has no power table for weight sign (ColumnUse mismatch)", col)
				}
				acc.Mul(acc, tbl[dig-1])
				acc.Mod(acc, n2)
				st.MulMods++
				started = true
			}
		}
	}
	if bias != nil && bias.Sign() != 0 {
		enc, err := k.ev.pk.encode(bias)
		if err != nil {
			return nil, err
		}
		t := new(big.Int).Mul(enc, k.ev.pk.N)
		t.Add(t, one)
		t.Mod(t, n2)
		acc.Mul(acc, t)
		acc.Mod(acc, n2)
		st.MulMods++
	}
	k.ev.cost.Add(st)
	if m := k.ev.metrics.Load(); m != nil && m.Dot != nil {
		m.Dot(time.Since(start))
	}
	return &Ciphertext{c: acc}, nil
}

// ScanColumnUse derives the per-column usage and the maximum weight bit
// length from a weight matrix whose rows align with the input vector
// (fully-connected layout).
func ScanColumnUse(w [][]int64, cols int) ([]ColumnUse, int, error) {
	use := make([]ColumnUse, cols)
	maxBits := 0
	for o, row := range w {
		if len(row) != cols {
			return nil, 0, fmt.Errorf("paillier: row %d length %d != input %d", o, len(row), cols)
		}
		for i, wv := range row {
			if wv == 0 {
				continue
			}
			if wv > 0 {
				use[i] |= UsePos
			} else {
				use[i] |= UseNeg
			}
			if b := WeightBits(wv); b > maxBits {
				maxBits = b
			}
		}
	}
	return use, maxBits, nil
}

// MatVec evaluates an encrypted fully-connected layer through the
// two-phase kernel: one preprocessing pass over the input vector, then
// the rows in parallel. Its rows go straight to the caller, so unlike the
// protocol's stages (which blind once per packed reply) it re-randomizes
// every row itself.
func (ev *Evaluator) MatVec(w [][]int64, bias []int64, xs []*Ciphertext, workers int) ([]*Ciphertext, error) {
	outN := len(w)
	if bias != nil && len(bias) != outN {
		return nil, fmt.Errorf("paillier: bias length %d != rows %d", len(bias), outN)
	}
	use, maxBits, err := ScanColumnUse(w, len(xs))
	if err != nil {
		return nil, err
	}
	k, err := ev.NewLinearKernel(xs, use, outN, maxBits, workers)
	if err != nil {
		return nil, err
	}
	out := make([]*Ciphertext, outN)
	var firstErr error
	var mu sync.Mutex
	parallelFor(outN, workers, func(o int) {
		var b *big.Int
		if bias != nil && bias[o] != 0 {
			b = big.NewInt(bias[o])
		}
		ct, err := k.Dot(nil, w[o], b)
		if err == nil {
			ct, err = ev.rerandomize(ct)
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		out[o] = ct
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
