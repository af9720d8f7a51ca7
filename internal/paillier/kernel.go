package paillier

// This file implements the model provider's homomorphic linear kernel
// (the exponentiation-dominated hot path of the paper's Figs. 1 and 9–11)
// as one row evaluator, Evaluator.Rows, that sees every row of a call —
// one thread's share of a layer, which qnn.ApplyStage hands to one call:
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
// them. Rows, then Pack, is the only path a round runs and the kernel's
// only entry point.

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"

	"ppstream/internal/obs"
)

// weightMagnitude returns |w|, safe for math.MinInt32 and branch-free:
// sign is all ones for a negative w, and (w XOR sign) − sign is
// two's-complement negation done in unsigned arithmetic.
func weightMagnitude(w int32) uint64 {
	sign := uint32(w >> 31)
	return uint64((uint32(w) ^ sign) - sign)
}

// Evaluator is the model provider's side of the kernel: the public key,
// the reply blinding supply and the cost sink. The kernel itself has
// nothing to configure. pool, when non-nil, serves precomputed factors;
// nil, or a pool with none ready, means a public r^n computed inline.
type Evaluator struct {
	pk *PublicKey
	// mu is modMul's reciprocal of n², computed once in NewEvaluator and
	// shared by every WithCost view.
	mu   *big.Int
	pool *Pool
	// cost, when non-nil, accumulates the crypto-op counts of every kernel
	// and blinding operation run through this evaluator. Per-request
	// attribution derives a metered view with WithCost rather than mutating
	// a shared evaluator.
	cost *obs.CostMeter
}

// NewEvaluator creates an evaluator for the given public key that blinds
// replies with factors from pool (nil: every factor computed inline).
func NewEvaluator(pk *PublicKey, pool *Pool) *Evaluator {
	return &Evaluator{pk: pk, mu: reciprocal(pk.N2), pool: pool}
}

// PublicKey returns the evaluator's key.
func (ev *Evaluator) PublicKey() *PublicKey { return ev.pk }

// WithCost derives an evaluator that shares this one's key and pool but
// accumulates crypto-op counts into m. Sessions keep one shared evaluator
// and derive a metered view per request, so concurrent requests never
// bleed counts into each other.
func (ev *Evaluator) WithCost(m *obs.CostMeter) *Evaluator {
	return &Evaluator{pk: ev.pk, mu: ev.mu, pool: ev.pool, cost: m}
}

// CostMeter returns the attached cost meter, nil when unmetered.
func (ev *Evaluator) CostMeter() *obs.CostMeter {
	if ev == nil {
		return nil
	}
	return ev.cost
}

// blinding draws one reply's factor and returns what the
// re-randomization it is for costs apart from applying it: a pool hit, or
// a miss and the public r^n it computes inline on the critical path.
func (ev *Evaluator) blinding() (*big.Int, obs.CostStats, error) {
	if rn := ev.pool.ready(); rn != nil {
		return rn, obs.CostStats{Rerands: 1, PoolHits: 1}, nil
	}
	rn, err := ev.pk.freshBlinding(nil)
	return rn, obs.CostStats{Rerands: 1, PoolMisses: 1, ModExps: 1}, err
}

// maxWindow bounds the digit width either strategy may use: 2^6−1 table
// entries per used column, or as many buckets per call.
const maxWindow = 6

// Row is one output of a linear layer: the encryption of
// Σ_j W[j]·m[Idx[j]] + Bias over the inputs of the Rows call it is part of.
type Row struct {
	// Idx maps row positions to input columns; nil means position j reads
	// column j, and then len(W) must equal the call's input count.
	Idx []int32
	W   []int32
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

// CountRows returns the plan Rows would follow for these rows over a call
// of inputs ciphertexts, or the error a malformed row would fail it with.
// It needs the input count only, not the ciphertexts, so a planner can
// price a call before any input exists: Rows runs the same count.
func CountRows(inputs int, rows []Row) (RowPlan, error) {
	costs, err := countRows(inputs, rows, nil, nil)
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

// countRows validates the rows against a call of inputs columns — every
// column a non-zero weight reads must be in range and, when the call's
// inputs xs are given, sent and an element of [0, n²), which is what
// bounds modMul's correction — and counts what each strategy would cost,
// so that no arithmetic runs on a call that is going to fail and the
// choice between strategies is a count, not a model.
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
func countRows(inputs int, rows []Row, xs []*Ciphertext, n2 *big.Int) (*rowCosts, error) {
	c := &rowCosts{used: make([]bool, inputs)}
	var usedCols, dens int
	var finish uint64
	for r := range rows {
		row := &rows[r]
		if row.Idx != nil && len(row.Idx) != len(row.W) {
			return nil, fmt.Errorf("paillier: row %d index list %d != weights %d", r, len(row.Idx), len(row.W))
		}
		if row.Idx == nil && len(row.W) != inputs {
			return nil, fmt.Errorf("paillier: row %d length %d != input %d", r, len(row.W), inputs)
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
				col = int(row.Idx[j])
			}
			if col < 0 || col >= inputs {
				return nil, fmt.Errorf("paillier: row %d column %d out of range [0,%d)", r, col, inputs)
			}
			if !c.used[col] {
				if xs != nil && (xs[col] == nil || xs[col].c == nil) {
					return nil, fmt.Errorf("paillier: row %d reads input %d, which was not sent (nil ciphertext)", r, col)
				}
				if xs != nil && (xs[col].c.Sign() < 0 || xs[col].c.Cmp(n2) >= 0) {
					return nil, fmt.Errorf("paillier: row %d reads input %d, which is outside [0, n²)", r, col)
				}
				c.used[col] = true
				usedCols++
			}
			s, m := uint32(wt)>>31, weightMagnitude(wt)
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
func digitStats(ws []int32, w uint, positions int) (nz, collapse [2]int) {
	var largest [2][16]uint64
	mask := uint64(1)<<w - 1
	for _, wt := range ws {
		s, m := uint32(wt)>>31, weightMagnitude(wt)
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
// xs on the caller's goroutine: row i of the result encrypts
// Σ_j W[j]·m[Idx[j]] + Bias of rows[i]. Callers that want threads split
// the rows between calls (qnn.ApplyStage). The rows are NOT
// re-randomized — they must pass through Evaluator.Pack before they leave
// the model provider.
//
// xs may hold nil at columns no row reads with a non-zero weight; a row
// that does read one, or a column out of range, fails the call before any
// arithmetic, and inputs whose product is not invertible modulo n² (one
// shares a factor with n) fail it at the batched inversion.
func (ev *Evaluator) Rows(xs []*Ciphertext, rows []Row) ([]*Ciphertext, error) {
	return ev.rows(xs, rows, Tables, Buckets)
}

// rows is Rows restricted to the given strategies, which is how tests pin
// one.
func (ev *Evaluator) rows(xs []*Ciphertext, rows []Row, among ...Strategy) ([]*Ciphertext, error) {
	costs, err := countRows(len(xs), rows, xs, ev.pk.N2)
	if err != nil {
		return nil, err
	}
	plan := costs.cheapest(among...)
	var mulMods uint64

	var powers [][]big.Int
	if size := costs.tableLen(plan.Window); plan.Strategy == Tables && size > 0 {
		powers = make([][]big.Int, len(xs))
		mm := ev.modMul()
		for i, used := range costs.used {
			if used {
				powers[i] = powerTable(&mm, xs[i].c, size)
			}
		}
		mulMods = mm.n
	}

	nums, dens := make([]*big.Int, len(rows)), make([]*big.Int, len(rows))
	p := newProducts(ev.modMul(), xs, powers, plan)
	for i := range rows {
		if nums[i], dens[i], err = p.row(ev.pk, &rows[i]); err != nil {
			return nil, fmt.Errorf("paillier: row %d bias: %w", i, err)
		}
	}
	mulMods += p.mm.n

	mm := ev.modMul()
	inverses, err := divide(&mm, nums, dens)
	if err != nil {
		return nil, err
	}
	out := make([]*Ciphertext, len(rows))
	for i, c := range nums {
		out[i] = &Ciphertext{c: c}
	}
	ev.cost.Add(obs.CostStats{MulMods: mulMods + mm.n, ModInverses: inverses})
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

// products evaluates one call's rows under a plan. The bucket and
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
			maxBits[0] = max(maxBits[0], bits.Len32(uint32(wt)))
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
				col = int(r.Idx[j])
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
