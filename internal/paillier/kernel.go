package paillier

// This file implements the model provider's homomorphic linear kernel
// (the exponentiation-dominated hot path of the paper's Figs. 1 and 9–11)
// as one row evaluator, Evaluator.Rows, that sees every row of a call —
// the layer for qnn's Op.Apply, one thread's share for ComputeRange:
//
//  1. every row Π_i E(m_i)^{w_i} is split by weight sign into a numerator
//     and a denominator product of positive powers, so no input is ever
//     inverted, and ONE Montgomery-trick batched inversion per call turns
//     all the denominators into divisors (1 ModInverse + 3 multiplies per
//     row with negative weights);
//  2. the products are evaluated by whichever of two strategies — shared
//     per-column power tables with Straus interleaving, or per-row
//     Pippenger buckets — runs fewer modular multiplications, counted
//     exactly over the call's own weights (countRows);
//  3. every modular multiplication goes through modMul, which does not
//     allocate and does not divide: it reduces by a reciprocal of n² that
//     the Evaluator computes once (Barrett).
//
// Nothing is kept between calls: the count is recomputed from the weights
// each time, and tables live for one call.
//
// A row is NOT re-randomized here: its randomness is only inherited from
// the inputs, and an all-zero row is the deterministic embedding of its
// bias. Rows stay inside the model provider; the one place a ciphertext is
// blinded before it leaves is Evaluator.Pack (pack.go), which folds a
// slot-full of rows into one reply ciphertext and pays one r^n for all of
// them. MatVec, which hands its rows to the caller, blinds each itself.

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"ppstream/internal/obs"
)

// weightMagnitude returns |w| as a uint64, safe for math.MinInt64 and
// branch-free: sign is all ones for a negative w, and (w XOR sign) − sign
// is two's-complement negation done in unsigned arithmetic.
func weightMagnitude(w int64) uint64 {
	sign := uint64(w >> 63)
	return (uint64(w) ^ sign) - sign
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
	// Precompute observes, once per Rows call, everything that is not a
	// row's own products: the count, the power tables (when the call uses
	// them) and the batched inversion.
	Precompute func(time.Duration)
	// Dot observes one row's numerator and denominator products.
	Dot func(time.Duration)
}

// Evaluator bundles the public key with the blinding supply and the
// kernel's timing and cost sinks for model-provider-side homomorphic
// evaluation; the kernel itself has nothing to configure. A nil
// blinder defaults to inline crypto/rand factors; attach a Pool to move
// the blinding exponentiations off the critical path.
type Evaluator struct {
	pk *PublicKey
	// mu is modMul's reciprocal of n², computed once in NewEvaluator and
	// shared by every WithCost view.
	mu      *big.Int
	blinder Blinder
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

// WithMetrics sets the kernel timing callbacks.
func WithMetrics(m KernelMetrics) EvalOption { return func(ev *Evaluator) { ev.metrics.Store(&m) } }

// WithCostMeter attaches a crypto-op cost meter at construction.
func WithCostMeter(m *obs.CostMeter) EvalOption { return func(ev *Evaluator) { ev.cost = m } }

// NewEvaluator creates an evaluator for the given public key.
func NewEvaluator(pk *PublicKey, opts ...EvalOption) *Evaluator {
	ev := &Evaluator{pk: pk, mu: reciprocal(pk.N2)}
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
// supply and timing callbacks but accumulates crypto-op counts
// into m. Sessions keep one shared evaluator and derive a metered view
// per request, so concurrent requests never bleed counts into each other.
func (ev *Evaluator) WithCost(m *obs.CostMeter) *Evaluator {
	d := &Evaluator{pk: ev.pk, mu: ev.mu, blinder: ev.blinder, cost: m}
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

// maxWindow bounds the digit width either strategy may use: 2^6−1 table
// entries per used column, or as many buckets per worker.
const maxWindow = 6

// Row is one output of a linear layer: the encryption of
// Σ_j W[j]·m[Idx[j]] + Bias over the inputs of the Rows call it is part of.
type Row struct {
	// Idx maps row positions to input columns; nil means position j reads
	// column j, and then len(W) must equal the call's input count.
	Idx []int
	W   []int64
	// Bias is added to the plaintext; nil or zero adds nothing.
	Bias *big.Int
}

// Strategy is how the rows of one call evaluate their products.
type Strategy uint8

const (
	// Tables builds x, x², …, x^tableLen once per used input column and
	// evaluates each product by Straus interleaving: one squaring chain per
	// product, one table lookup and multiply per non-zero digit. Cheapest
	// when short rows read each column many times (conv, small FC).
	Tables Strategy = iota
	// Buckets precomputes nothing per column: each product multiplies every
	// input into the bucket of its weight digit and collapses the buckets
	// with running products (Pippenger). Cheapest for long rows of narrow
	// weights, where a column's table would serve too few rows to pay back.
	Buckets
)

func (s Strategy) String() string {
	if s == Tables {
		return "tables"
	}
	return "buckets"
}

// RowPlan is how one Rows call evaluates its rows: the strategy and digit
// width that run the fewest modular multiplications over the call's
// weights, and exactly how many multiplications and inversions that is —
// what a cost meter on the evaluator will read afterwards.
type RowPlan struct {
	Strategy    Strategy
	Window      uint
	MulMods     uint64
	ModInverses uint64
}

// PlanRows returns the plan Rows would follow for these inputs and rows,
// or the error it would fail with before doing any arithmetic — except
// for an input outside [0, n²), which takes the key PlanRows does not have.
func PlanRows(xs []*Ciphertext, rows []Row) (RowPlan, error) {
	costs, err := countRows(xs, rows, nil)
	if err != nil {
		return RowPlan{}, err
	}
	return costs.cheapest(Tables, Buckets), nil
}

// rowCosts is the exact operation count of one Rows call under every
// (strategy, window) pair, from one pass over the call's weights.
type rowCosts struct {
	// used[i]: some row multiplies input i by a non-zero weight.
	used []bool
	// largest is the largest weight magnitude in the call.
	largest     uint64
	mulMods     [2][maxWindow + 1]uint64
	modInverses uint64
}

// tableLen is the power table length of every used column under Tables at
// window w: no w-bit digit of any weight is larger.
func (c *rowCosts) tableLen(w uint) int {
	return int(min(uint64(1)<<w-1, c.largest))
}

// countRows validates the rows against xs — every column a non-zero weight
// reads must be in range, sent and, when n2 is given, an element of
// [0, n²), which is what bounds modMul's correction — and counts what each
// strategy would cost, so that no arithmetic runs on a call that is going
// to fail and the choice between strategies is a count, not a model.
//
// Per product (one sign of one row) with nz non-zero w-bit digits, its
// highest digit position top, and d_p the largest digit at position p
// (summed over the positions that have a non-zero digit):
//
//	tables:  w·top squarings + nz − 1 multiplies
//	buckets: the same + Σ_p (d_p − 1)
//
// A position with nz_p digits in u_p buckets costs nz_p − u_p to fill
// them, (u_p − 1) + (d_p − 1) to collapse them and one to merge into the
// product — which the first position does by copying. Tables pays
// tableLen − 1 per used column instead. Both add the finish: one multiply
// per non-zero bias on a row with positive weights, three per row with
// negative weights after the first for the batched inversion, and one per
// such row to divide (unless its numerator is 1).
func countRows(xs []*Ciphertext, rows []Row, n2 *big.Int) (*rowCosts, error) {
	c := &rowCosts{used: make([]bool, len(xs))}
	var usedCols, dens int
	var finish uint64
	for r := range rows {
		row := &rows[r]
		if row.Idx != nil && len(row.Idx) != len(row.W) {
			return nil, fmt.Errorf("paillier: row %d index list %d != weights %d", r, len(row.Idx), len(row.W))
		}
		if row.Idx == nil && len(row.W) != len(xs) {
			return nil, fmt.Errorf("paillier: row %d length %d != input %d", r, len(row.W), len(xs))
		}
		// Per sign: how many weights, their set bits, their largest magnitude.
		var weights, ones [2]int
		var largest [2]uint64
		for j, wt := range row.W {
			if wt == 0 {
				continue
			}
			col := j
			if row.Idx != nil {
				col = row.Idx[j]
			}
			if col < 0 || col >= len(xs) {
				return nil, fmt.Errorf("paillier: row %d column %d out of range [0,%d)", r, col, len(xs))
			}
			if xs[col] == nil || xs[col].c == nil {
				return nil, fmt.Errorf("paillier: row %d reads input %d, which was not sent (nil ciphertext)", r, col)
			}
			if !c.used[col] {
				if x := xs[col].c; n2 != nil && (x.Sign() < 0 || x.Cmp(n2) >= 0) {
					return nil, fmt.Errorf("paillier: row %d reads input %d, which is outside [0, n²)", r, col)
				}
				c.used[col] = true
				usedCols++
			}
			s, m := uint64(wt)>>63, weightMagnitude(wt)
			weights[s]++
			ones[s] += bits.OnesCount64(m)
			largest[s] = max(largest[s], m)
		}
		c.largest = max(c.largest, largest[0], largest[1])
		for w := uint(1); w <= maxWindow; w++ {
			// Digits per weight, over both signs; a product's own top
			// position may be lower.
			positions := (bits.Len64(largest[0]|largest[1]) + int(w) - 1) / int(w)
			nz, collapse := ones, [2]int{} // w == 1: every non-zero digit is 1, one bucket
			switch {
			case w == 1:
			case positions <= 1: // one digit per weight, the weight itself
				nz, collapse = weights, [2]int{int(largest[0]) - 1, int(largest[1]) - 1}
			default:
				nz, collapse = digitStats(row.W, w, positions)
			}
			for s := range weights {
				if weights[s] == 0 {
					continue
				}
				top := (bits.Len64(largest[s]) - 1) / int(w)
				n := uint64(int(w)*top + nz[s] - 1)
				c.mulMods[Tables][w] += n
				c.mulMods[Buckets][w] += n + uint64(collapse[s])
			}
		}
		bias := row.Bias != nil && row.Bias.Sign() != 0
		if bias && weights[0] > 0 {
			finish++
		}
		if weights[1] > 0 {
			dens++
			if bias || weights[0] > 0 {
				finish++
			}
		}
	}
	if dens > 0 {
		c.modInverses = 1
		finish += 3 * uint64(dens-1)
	}
	for w := uint(1); w <= maxWindow; w++ {
		c.mulMods[Buckets][w] += finish
		c.mulMods[Tables][w] += finish + uint64(usedCols*(c.tableLen(w)-1))
	}
	return c, nil
}

// digitStats cuts every weight into that many w-bit digits, w ≥ 2, and
// returns, per sign, how many digits are non-zero and Σ_p (d_p − 1) over
// the digit positions in use, d_p being the largest digit at position p.
// It runs once per row and window on the kernel's critical path, so the
// inner loop is branch-free: weight signs and digit values are as good as
// random, and a mispredicted branch costs more than the arithmetic.
func digitStats(ws []int64, w uint, positions int) (nz, collapse [2]int) {
	var largest [2][32]uint64
	mask := uint64(1)<<w - 1
	for _, wt := range ws {
		s, m := uint64(wt)>>63, weightMagnitude(wt)
		for p := 0; p < positions; p++ {
			d := m >> (uint(p) * w) & mask
			nz[s] += int((d + mask) >> w) // 1 unless d == 0
			largest[s][p] = max(largest[s][p], d)
		}
	}
	for s := range largest {
		for _, d := range largest[s][:positions] {
			if d != 0 {
				collapse[s] += int(d) - 1
			}
		}
	}
	return nz, collapse
}

// cheapest returns the (strategy, window) pair among the given strategies
// that runs the fewest modular multiplications; ties go to the strategy
// listed first, then to the narrower window.
func (c *rowCosts) cheapest(among ...Strategy) RowPlan {
	best := RowPlan{ModInverses: c.modInverses}
	for i, s := range among {
		for w := uint(1); w <= maxWindow; w++ {
			if n := c.mulMods[s][w]; (i == 0 && w == 1) || n < best.MulMods {
				best.Strategy, best.Window, best.MulMods = s, w, n
			}
		}
	}
	return best
}

// modMul multiplies modulo m without allocating once its scratch has
// grown, and without dividing: with k = bitlen(m) and the reciprocal
// mu = ⌊2^(2k)/m⌋, the quotient of t = a·b < m² is estimated as
// ((t ≫ (k−1))·mu) ≫ (k+1), which is never above ⌊t/m⌋ and at most 2
// below it (Barrett; HAC 14.42), so t − estimate·m is reduced by at most
// two subtractions. n counts the multiplications done, which is what the
// kernel's cost accounting reports. One per goroutine; operands must lie
// in [0, m), which Rows and Pack check of every ciphertext they are given.
type modMul struct {
	m, mu         *big.Int
	prod, hi, quo big.Int
	n             uint64
}

// reciprocal returns ⌊2^(2k)/m⌋ for k = bitlen(m).
func reciprocal(m *big.Int) *big.Int {
	mu := new(big.Int).Lsh(one, 2*uint(m.BitLen()))
	return mu.Quo(mu, m)
}

// modMul returns a multiplier modulo n² for one goroutine.
func (ev *Evaluator) modMul() modMul { return modMul{m: ev.pk.N2, mu: ev.mu} }

// mul sets dst = a·b mod m. dst may alias a or b. No Mul below writes
// into one of its own operands, which would make math/big allocate.
func (mm *modMul) mul(dst, a, b *big.Int) {
	k := uint(mm.m.BitLen())
	mm.prod.Mul(a, b)
	mm.hi.Rsh(&mm.prod, k-1)
	mm.quo.Mul(&mm.hi, mm.mu)
	mm.quo.Rsh(&mm.quo, k+1)
	mm.hi.Mul(&mm.quo, mm.m)
	dst.Sub(&mm.prod, &mm.hi)
	if dst.Cmp(mm.m) >= 0 {
		if dst.Sub(dst, mm.m); dst.Cmp(mm.m) >= 0 {
			dst.Sub(dst, mm.m)
		}
	}
	mm.n++
}

// powerTable returns [b, b², …, b^size] mod mm.m.
func powerTable(mm *modMul, b *big.Int, size int) []big.Int {
	t := make([]big.Int, size)
	t[0].Set(b)
	for d := 1; d < size; d++ {
		mm.mul(&t[d], &t[d-1], b)
	}
	return t
}

// Rows evaluates the rows of one linear call over the input ciphertexts
// xs, up to workers at a time (0 means GOMAXPROCS): row i of the result
// encrypts Σ_j W[j]·m[Idx[j]] + Bias of rows[i]. The rows are NOT
// re-randomized — they must pass through Evaluator.Pack (or be blinded by
// the caller, as MatVec does) before they leave the model provider.
//
// xs may hold nil at columns no row reads with a non-zero weight (a
// partition thread's view); a row that does read one, or a column out of
// range, fails the call before any arithmetic, and inputs whose product
// is not invertible modulo n² (one shares a factor with n) fail it at the
// batched inversion.
func (ev *Evaluator) Rows(xs []*Ciphertext, rows []Row, workers int) ([]*Ciphertext, error) {
	return ev.rows(xs, rows, workers, Tables, Buckets)
}

// rows is Rows restricted to the given strategies, which is how tests pin
// one.
func (ev *Evaluator) rows(xs []*Ciphertext, rows []Row, workers int, among ...Strategy) ([]*Ciphertext, error) {
	start := time.Now()
	costs, err := countRows(xs, rows, ev.pk.N2)
	if err != nil {
		return nil, err
	}
	plan := costs.cheapest(among...)
	metrics := ev.metrics.Load()
	var mulMods atomic.Uint64

	var powers [][]big.Int
	if size := costs.tableLen(plan.Window); plan.Strategy == Tables && size > 0 {
		powers = make([][]big.Int, len(xs))
		parallelChunks(len(xs), workers, func(lo, hi int) {
			mm := ev.modMul()
			for i := lo; i < hi; i++ {
				if costs.used[i] {
					powers[i] = powerTable(&mm, xs[i].c, size)
				}
			}
			mulMods.Add(mm.n)
		})
	}
	setup := time.Since(start)

	nums, dens := make([]*big.Int, len(rows)), make([]*big.Int, len(rows))
	var mu sync.Mutex
	var firstErr error
	parallelChunks(len(rows), workers, func(lo, hi int) {
		p := newProducts(ev.modMul(), xs, powers, plan)
		for i := lo; i < hi; i++ {
			t := time.Now()
			var err error
			if nums[i], dens[i], err = p.row(ev.pk, &rows[i]); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("paillier: row %d bias: %w", i, err)
				}
				mu.Unlock()
				return
			}
			if metrics != nil && metrics.Dot != nil {
				metrics.Dot(time.Since(t))
			}
		}
		mulMods.Add(p.mm.n)
	})
	if firstErr != nil {
		return nil, firstErr
	}

	start = time.Now()
	mm := ev.modMul()
	inverses, err := divide(&mm, nums, dens)
	if err != nil {
		return nil, err
	}
	out := make([]*Ciphertext, len(rows))
	for i, c := range nums {
		out[i] = &Ciphertext{c: c}
	}
	ev.cost.Add(obs.CostStats{MulMods: mulMods.Load() + mm.n, ModInverses: inverses})
	if metrics != nil && metrics.Precompute != nil {
		metrics.Precompute(setup + time.Since(start))
	}
	return out, nil
}

// divide finishes a call's rows in place: nums[i] becomes nums[i]/dens[i]
// mod mm.m wherever dens[i] is non-nil (a nil numerator stands for 1, and
// is replaced by 1 where there is no denominator either). All the
// denominators are inverted together by Montgomery's trick: one
// ModInverse of their product and three multiplications per denominator
// after the first. It returns how many inversions it ran, 0 or 1.
func divide(mm *modMul, nums, dens []*big.Int) (inverses uint64, err error) {
	var with []int
	for i, d := range dens {
		if d != nil {
			with = append(with, i)
		} else if nums[i] == nil {
			nums[i] = big.NewInt(1)
		}
	}
	if len(with) == 0 {
		return 0, nil
	}
	// prefix[k] = dens[with[0]]·…·dens[with[k]].
	prefix := make([]big.Int, len(with))
	prefix[0].Set(dens[with[0]])
	for k := 1; k < len(with); k++ {
		mm.mul(&prefix[k], &prefix[k-1], dens[with[k]])
	}
	inv := new(big.Int).ModInverse(&prefix[len(with)-1], mm.m)
	if inv == nil {
		return 0, errors.New("paillier: kernel inputs not invertible modulo n² (a ciphertext shares a factor with n)")
	}
	// Walking back, inv is the inverse of prefix[k]: times prefix[k−1] it
	// is the k-th denominator's own inverse, times that denominator it is
	// the inverse of prefix[k−1].
	for k := len(with) - 1; k >= 0; k-- {
		i, own := with[k], inv
		if k > 0 {
			own = &prefix[k-1]
			mm.mul(own, inv, own)
			mm.mul(inv, inv, dens[i])
		}
		if nums[i] == nil {
			nums[i] = own
		} else {
			mm.mul(nums[i], nums[i], own)
		}
	}
	return 1, nil
}

// products evaluates one goroutine's rows under a plan. The bucket and
// collapse scratch is reused from row to row and dropped with the call.
type products struct {
	mm     modMul
	xs     []*Ciphertext
	powers [][]big.Int // tables: powers[col][d−1] = xs[col]^d
	plan   RowPlan
	// buckets: bucket[d] is the running product of the inputs whose current
	// digit is d — nil when empty, the input itself while it is the only
	// one, &store[d] after that.
	bucket   []*big.Int
	store    []big.Int
	run, sum big.Int
}

func newProducts(mm modMul, xs []*Ciphertext, powers [][]big.Int, plan RowPlan) *products {
	p := &products{mm: mm, xs: xs, powers: powers, plan: plan}
	if plan.Strategy == Buckets {
		p.bucket = make([]*big.Int, 1<<plan.Window)
		p.store = make([]big.Int, 1<<plan.Window)
	}
	return p
}

// row returns the row's numerator — the product over its positive
// weights, times the embedding 1 + bias·n of a non-zero bias — and its
// denominator, the product over its negative weights; nil stands for 1.
// Both are fresh values the caller owns.
func (p *products) row(pk *PublicKey, r *Row) (num, den *big.Int, err error) {
	var maxBits [2]int
	for _, wt := range r.W {
		if wt > 0 {
			maxBits[0] = max(maxBits[0], bits.Len64(uint64(wt)))
		} else if wt < 0 {
			maxBits[1] = max(maxBits[1], bits.Len64(weightMagnitude(wt)))
		}
	}
	num, den = p.product(r, false, maxBits[0]), p.product(r, true, maxBits[1])
	if r.Bias != nil && r.Bias.Sign() != 0 {
		enc, err := pk.encode(r.Bias)
		if err != nil {
			return nil, nil, err
		}
		// enc < n, so 1 + enc·n is already reduced modulo n². enc may be
		// the row's own bias, so the product goes into a fresh value.
		b := new(big.Int).Mul(enc, pk.N)
		b.Add(b, one)
		if num == nil {
			num = b
		} else {
			p.mm.mul(num, num, b)
		}
	}
	return num, den, nil
}

// product returns Π xs[col(j)]^|W[j]| over the row's weights of one sign,
// whose longest magnitude has maxBits bits; nil when there are none. The
// weights are read one window-wide digit position at a time from the top,
// the accumulator squared window times between positions (Horner), and
// each position's factor Π_j x_j^digit_j comes from the power tables, one
// lookup at a time, or from the buckets.
func (p *products) product(r *Row, negative bool, maxBits int) *big.Int {
	if maxBits == 0 {
		return nil
	}
	w := p.plan.Window
	mask := uint64(1)<<w - 1
	var acc *big.Int
	times := func(f *big.Int) {
		if acc == nil {
			acc = new(big.Int).Set(f)
		} else {
			p.mm.mul(acc, acc, f)
		}
	}
	for pos := (maxBits - 1) / int(w); pos >= 0; pos-- {
		if acc != nil {
			for s := uint(0); s < w; s++ {
				p.mm.mul(acc, acc, acc)
			}
		}
		shift := uint(pos) * w
		largest := 0 // highest bucket filled at this position
		for j, wt := range r.W {
			if wt == 0 || (wt < 0) != negative {
				continue
			}
			d := int((weightMagnitude(wt) >> shift) & mask)
			if d == 0 {
				continue
			}
			col := j
			if r.Idx != nil {
				col = r.Idx[j]
			}
			if p.plan.Strategy == Tables {
				times(&p.powers[col][d-1])
				continue
			}
			if b := p.bucket[d]; b == nil {
				p.bucket[d] = p.xs[col].c
			} else {
				p.mm.mul(&p.store[d], b, p.xs[col].c)
				p.bucket[d] = &p.store[d]
			}
			largest = max(largest, d)
		}
		if largest > 0 {
			times(p.collapse(largest))
		}
	}
	return acc
}

// collapse empties the buckets and returns Π_d bucket[d]^d for d up to
// largest, the highest bucket in use: walking down, run is the product of
// the buckets seen so far and sum the product of every value run has
// taken, so bucket d is multiplied in d times. The result aliases an
// input or scratch the next collapse overwrites.
func (p *products) collapse(largest int) *big.Int {
	var run, sum *big.Int
	for d := largest; d >= 1; d-- {
		if b := p.bucket[d]; b != nil {
			p.bucket[d] = nil
			if run == nil {
				run = b
			} else {
				p.mm.mul(&p.run, run, b)
				run = &p.run
			}
		}
		if sum == nil {
			sum = run
		} else {
			p.mm.mul(&p.sum, sum, run)
			sum = &p.sum
		}
	}
	return sum
}

// MatVec evaluates an encrypted fully-connected layer through Rows. Its
// rows go straight to the caller, so unlike the protocol's stages (which
// blind once per packed reply) it re-randomizes every row itself.
func (ev *Evaluator) MatVec(w [][]int64, bias []int64, xs []*Ciphertext, workers int) ([]*Ciphertext, error) {
	if bias != nil && len(bias) != len(w) {
		return nil, fmt.Errorf("paillier: bias length %d != rows %d", len(bias), len(w))
	}
	rows := make([]Row, len(w))
	for o := range w {
		rows[o].W = w[o]
		if bias != nil && bias[o] != 0 {
			rows[o].Bias = big.NewInt(bias[o])
		}
	}
	out, err := ev.Rows(xs, rows, workers)
	if err != nil {
		return nil, err
	}
	var firstErr error
	var mu sync.Mutex
	parallelFor(len(out), workers, func(o int) {
		ct, err := ev.rerandomize(out[o])
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
