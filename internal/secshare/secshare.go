// Package secshare implements two-party additive secret sharing over the
// ring Z_{2^64} with Beaver-triple multiplication: the one ring arithmetic
// under the ss-gc backend and the EzPC-style baseline (Exp#6). Values are
// the scaled integers the quantized network (internal/qnn) computes over;
// the linear ops multiply without truncation, and a caller that wants its
// values back at the input scale truncates the shares locally (Truncate).
//
// The engine executes the real protocol arithmetic between two party
// states and counts every triple and opened word into an obs.CostStats;
// network latency is the caller's concern.
package secshare

import (
	"math/rand"

	"ppstream/internal/obs"
)

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

// Engine holds both parties' shares and executes protocol steps,
// counting what they cost. It models the data flow of a semi-honest
// two-party deployment inside one process.
type Engine struct {
	dealer *Dealer
	// Stats counts the Beaver triples consumed (Triples) and the share
	// words their openings exchange (OpenedWords).
	Stats obs.CostStats
}

// NewEngine creates an engine with its own dealer.
func NewEngine(seed int64) *Engine {
	return &Engine{dealer: NewDealer(seed)}
}

// mulRaw multiplies two sharings with one Beaver triple and NO
// truncation: the result's scale is the product of the inputs' scales.
// Opening x−a and y−b exchanges two words per party.
func (e *Engine) mulRaw(x, y Shares) Shares {
	t := e.dealer.Triple()
	e.Stats.Triples++
	e.Stats.OpenedWords += 4
	d := (x.S[0] - t.A.S[0]) + (x.S[1] - t.A.S[1])
	ev := (y.S[0] - t.B.S[0]) + (y.S[1] - t.B.S[1])
	z0 := t.C.S[0] + d*t.B.S[0] + ev*t.A.S[0] + d*ev
	z1 := t.C.S[1] + d*t.B.S[1] + ev*t.A.S[1]
	return Shares{S: [2]uint64{z0, z1}}
}

// Truncate divides a sharing by 2^bits with SecureML's local truncation:
// each party shifts its own share arithmetically, party 1 through the
// negation of its share. The result is within one of ⌊x/2^bits⌋ except
// with probability about |x|/2^63 over the share randomness.
func Truncate(s Shares, bits uint) Shares {
	return Shares{S: [2]uint64{
		uint64(int64(s.S[0]) >> bits),
		-uint64(int64(-s.S[1]) >> bits),
	}}
}
