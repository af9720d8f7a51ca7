// Package secshare implements two-party additive secret sharing over the
// ring Z_{2^64} with Beaver-triple multiplication — the arithmetic
// substrate of the SecureML- and EzPC-style baselines the paper compares
// against (Exp#6). Values use fixed-point encoding with local truncation
// after multiplication, as in SecureML.
//
// The engine executes the real protocol arithmetic between two party
// states and accounts every opened value, so communication volume and
// round counts are faithful; network latency is the caller's concern
// (the baselines charge per-round costs explicitly).
package secshare

import (
	"errors"
	"fmt"
	"math/rand"
)

// FracBits is the fixed-point fractional precision (SecureML uses 13;
// 16 gives headroom for deeper models).
const FracBits = 16

// Encode converts a float to ring fixed-point.
func Encode(v float64) uint64 {
	return uint64(int64(v * float64(uint64(1)<<FracBits)))
}

// Decode converts ring fixed-point back to float.
func Decode(v uint64) float64 {
	return float64(int64(v)) / float64(uint64(1)<<FracBits)
}

// Shares is a two-party additive sharing: value = S[0] + S[1] (mod 2^64).
type Shares struct {
	S [2]uint64
}

// Split shares a ring value with fresh randomness.
func Split(rng *rand.Rand, v uint64) Shares {
	r := rng.Uint64()
	return Shares{S: [2]uint64{r, v - r}}
}

// Reconstruct opens a sharing.
func (s Shares) Reconstruct() uint64 { return s.S[0] + s.S[1] }

// Triple is a Beaver multiplication triple: C = A·B, all shared.
type Triple struct {
	A, B, C Shares
}

// Dealer produces Beaver triples (the trusted-dealer / offline phase,
// standard in semi-honest 2PC evaluations).
type Dealer struct {
	rng *rand.Rand
}

// NewDealer creates a deterministic dealer for reproducible benchmarks.
func NewDealer(seed int64) *Dealer {
	return &Dealer{rng: rand.New(rand.NewSource(seed))}
}

// Triple draws one multiplication triple.
func (d *Dealer) Triple() Triple {
	a, b := d.rng.Uint64(), d.rng.Uint64()
	return Triple{
		A: Split(d.rng, a),
		B: Split(d.rng, b),
		C: Split(d.rng, a*b),
	}
}

// Stats accounts protocol cost.
type Stats struct {
	// OpenedWords counts 64-bit values exchanged during openings (each
	// opening sends one word per party).
	OpenedWords int
	// Rounds counts communication rounds (batched openings count once).
	Rounds int
	// TriplesUsed counts consumed Beaver triples.
	TriplesUsed int
}

// Engine holds both parties' shares and executes protocol steps,
// tracking costs. It models the data flow of a semi-honest two-party
// deployment inside one process.
type Engine struct {
	dealer *Dealer
	rng    *rand.Rand
	Stats  Stats
}

// NewEngine creates an engine with its own dealer.
func NewEngine(seed int64) *Engine {
	return &Engine{dealer: NewDealer(seed + 1), rng: rand.New(rand.NewSource(seed))}
}

// ShareVec secret-shares a float vector.
func (e *Engine) ShareVec(vals []float64) []Shares {
	out := make([]Shares, len(vals))
	for i, v := range vals {
		out[i] = Split(e.rng, Encode(v))
	}
	return out
}

// OpenVec reconstructs a shared vector, charging one round and the
// exchanged words.
func (e *Engine) OpenVec(xs []Shares) []float64 {
	e.Stats.Rounds++
	e.Stats.OpenedWords += 2 * len(xs)
	out := make([]float64, len(xs))
	for i, s := range xs {
		out[i] = Decode(s.Reconstruct())
	}
	return out
}

// AddConst adds a public constant (party 0 adjusts its share).
func (e *Engine) AddConst(a Shares, c uint64) Shares {
	return Shares{S: [2]uint64{a.S[0] + c, a.S[1]}}
}

// MulVec multiplies two shared vectors element-wise using one Beaver
// triple per element; all openings batch into a single round.
func (e *Engine) MulVec(x, y []Shares) ([]Shares, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("secshare: mul length mismatch %d vs %d", len(x), len(y))
	}
	n := len(x)
	out := make([]Shares, n)
	// One round: open d = x−a and ev = y−b for all elements.
	e.Stats.Rounds++
	e.Stats.OpenedWords += 4 * n // two openings, two words each
	for i := 0; i < n; i++ {
		t := e.dealer.Triple()
		e.Stats.TriplesUsed++
		d := (x[i].S[0] - t.A.S[0]) + (x[i].S[1] - t.A.S[1])
		ev := (y[i].S[0] - t.B.S[0]) + (y[i].S[1] - t.B.S[1])
		// z_p = c_p + d·b_p + ev·a_p (+ d·ev for party 0)
		z0 := t.C.S[0] + d*t.B.S[0] + ev*t.A.S[0] + d*ev
		z1 := t.C.S[1] + d*t.B.S[1] + ev*t.A.S[1]
		// fixed-point truncation (SecureML local truncation)
		out[i] = truncateShares(Shares{S: [2]uint64{z0, z1}})
	}
	return out, nil
}

// DotShared computes the inner product of a shared vector with a public
// float weight vector plus a public bias — the linear-layer primitive.
// Public-weight linear algebra is communication-free in additive sharing.
func (e *Engine) DotShared(x []Shares, w []float64, bias float64) (Shares, error) {
	if len(x) != len(w) {
		return Shares{}, fmt.Errorf("secshare: dot length mismatch %d vs %d", len(x), len(w))
	}
	var acc0, acc1 uint64
	for i := range x {
		cc := Encode(w[i])
		acc0 += x[i].S[0] * cc
		acc1 += x[i].S[1] * cc
	}
	out := truncateShares(Shares{S: [2]uint64{acc0, acc1}})
	return e.AddConst(out, Encode(bias)), nil
}

// MatVec applies a public weight matrix to a shared vector.
func (e *Engine) MatVec(w [][]float64, bias []float64, x []Shares) ([]Shares, error) {
	out := make([]Shares, len(w))
	for o, rowW := range w {
		var b float64
		if bias != nil {
			if len(bias) != len(w) {
				return nil, errors.New("secshare: bias length mismatch")
			}
			b = bias[o]
		}
		s, err := e.DotShared(x, rowW, b)
		if err != nil {
			return nil, err
		}
		out[o] = s
	}
	return out, nil
}

// SquareVec computes element-wise x², SecureML's polynomial-friendly
// activation, one triple per element.
func (e *Engine) SquareVec(x []Shares) ([]Shares, error) {
	return e.MulVec(x, x)
}

// mulRaw multiplies two sharings with one Beaver triple and NO
// truncation: the result is at doubled fixed-point scale. Openings are
// accounted by the caller (they batch into the layer's round).
func (e *Engine) mulRaw(x, y Shares) Shares {
	t := e.dealer.Triple()
	e.Stats.TriplesUsed++
	e.Stats.OpenedWords += 4
	d := (x.S[0] - t.A.S[0]) + (x.S[1] - t.A.S[1])
	ev := (y.S[0] - t.B.S[0]) + (y.S[1] - t.B.S[1])
	z0 := t.C.S[0] + d*t.B.S[0] + ev*t.A.S[0] + d*ev
	z1 := t.C.S[1] + d*t.B.S[1] + ev*t.A.S[1]
	return Shares{S: [2]uint64{z0, z1}}
}

// DotPrivate computes Σ_j w_j·x_j + bias where the weights and bias are
// party 0's PRIVATE inputs (the model provider's parameters in a
// two-party deployment, as in SecureML/EzPC): each weight is implicitly
// shared as (Encode(w), 0) and multiplied with a Beaver triple. One
// truncation applies after the accumulation.
func (e *Engine) DotPrivate(w []float64, x []Shares, bias float64) (Shares, error) {
	if len(w) != len(x) {
		return Shares{}, fmt.Errorf("secshare: private dot length mismatch %d vs %d", len(w), len(x))
	}
	var acc Shares
	for j := range w {
		ws := Shares{S: [2]uint64{Encode(w[j]), 0}}
		p := e.mulRaw(ws, x[j])
		acc.S[0] += p.S[0]
		acc.S[1] += p.S[1]
	}
	out := truncateShares(acc)
	return e.AddConst(out, Encode(bias)), nil
}

// MatVecPrivate applies a party-0-private weight matrix (plus optional
// private bias) to a shared vector: the linear layer of the 2PC
// baselines. All Beaver openings batch into one communication round.
func (e *Engine) MatVecPrivate(w [][]float64, bias []float64, x []Shares) ([]Shares, error) {
	if bias != nil && len(bias) != len(w) {
		return nil, errors.New("secshare: bias length mismatch")
	}
	e.Stats.Rounds++
	out := make([]Shares, len(w))
	for o, rowW := range w {
		var b float64
		if bias != nil {
			b = bias[o]
		}
		s, err := e.DotPrivate(rowW, x, b)
		if err != nil {
			return nil, err
		}
		out[o] = s
	}
	return out, nil
}

// truncateShares performs SecureML-style local truncation: each party
// shifts its share arithmetically. Correct with probability
// 1 − |x|/2^(63−2f) for fixed-point values in range.
func truncateShares(s Shares) Shares {
	return Shares{S: [2]uint64{
		truncate(s.S[0]),
		uint64(-truncateNeg(-s.S[1])),
	}}
}

func truncate(v uint64) uint64 {
	return uint64(int64(v) >> FracBits)
}

func truncateNeg(v uint64) int64 {
	return int64(v) >> FracBits
}
