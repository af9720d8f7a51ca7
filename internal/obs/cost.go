package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// This file holds the crypto-cost accounting model: every request
// accumulates the modular-arithmetic operations and ciphertext traffic
// it caused, per layer, so a traced request shows WHY a segment was slow
// (how many modexps, how many pool misses, how many ciphertext bytes)
// rather than only how slow. The paillier kernel, the qnn ops, and the
// protocol session layer all write into a per-request CostMeter; the
// aggregated CostStats ride on TraceTree segments and feed the
// registry's "cost.*" counters.

// CostStats is one aggregated crypto-cost profile: plain values, safe to
// copy, attached to trace segments and marshaled into the span store's
// records. All fields count operations (or bytes) caused by one request,
// one layer, or one whole process depending on where the snapshot was
// taken.
type CostStats struct {
	// ModExps counts full modular exponentiations (encryptions, fresh
	// blinding factors, scalar multiplications outside the kernel).
	ModExps uint64 `json:"modexps"`
	// MulMods counts modular multiplications (kernel squarings, table
	// digit multiplies, power-table builds, blinding applications).
	MulMods uint64 `json:"mulmods"`
	// ModInverses counts modular inversions (negative-weight columns).
	ModInverses uint64 `json:"modinverses"`
	// Rerands counts fresh r^n output re-randomizations consumed.
	Rerands uint64 `json:"rerands"`
	// PoolHits counts blinding factors served from a precomputed pool.
	PoolHits uint64 `json:"pool_hits"`
	// PoolMisses counts blinding factors computed inline because the
	// pool was empty (each one is a full n-bit exponentiation on the
	// critical path).
	PoolMisses uint64 `json:"pool_misses"`
	// Encrypts counts plaintext→ciphertext encryptions.
	Encrypts uint64 `json:"encrypts"`
	// Decrypts counts ciphertext→plaintext decryptions.
	Decrypts uint64 `json:"decrypts"`
	// CipherBytesIn counts ciphertext bytes received from the wire.
	CipherBytesIn uint64 `json:"cipher_bytes_in"`
	// CipherBytesOut counts ciphertext bytes sent to the wire.
	CipherBytesOut uint64 `json:"cipher_bytes_out"`
	// Triples counts Beaver multiplication triples consumed by the
	// secret-sharing backend's linear layers.
	Triples uint64 `json:"triples"`
	// OpenedWords counts 64-bit share words opened (exchanged) during
	// secret-sharing multiplications and reconstructions.
	OpenedWords uint64 `json:"opened_words"`
	// GCGates counts garbled AND gates evaluated (half-gates, two table
	// rows each) by the garbled-circuit ReLU of the ss-gc backend.
	GCGates uint64 `json:"gc_gates"`
	// ExtOTs counts extended oblivious transfers consumed by garbled
	// circuit evaluations.
	ExtOTs uint64 `json:"ext_ots"`
	// PlainOps counts plaintext big-integer operations: the clear
	// backend's multiply-accumulates past the crypto-clear boundary, and
	// the data provider's conversion of each value it hands to the clear
	// or ss-gc backend or opens from ss-gc shares.
	PlainOps uint64 `json:"plain_ops"`
}

// costFields names every CostStats field exactly once, in the order
// CostStats.Fields lists them: its canonical lowercase metric-name
// component, the name the registry counters ("cost.<name>") and String
// use. TestCostFieldsCoverStruct checks it against the struct, JSON tags
// included.
var costFields = [...]string{
	"modexps", "mulmods", "modinverses", "rerands", "pool_hits",
	"pool_misses", "encrypts", "decrypts", "cipher_bytes_in", "cipher_bytes_out",
	"triples", "opened_words", "gc_gates", "ext_ots", "plain_ops",
}

// Fields addresses every field of c, in costFields order: the iteration
// order of the registry counters, String, and the wire encoding of a
// trace segment's cost.
func (c *CostStats) Fields() [len(costFields)]*uint64 {
	return [...]*uint64{
		&c.ModExps, &c.MulMods, &c.ModInverses, &c.Rerands, &c.PoolHits,
		&c.PoolMisses, &c.Encrypts, &c.Decrypts, &c.CipherBytesIn, &c.CipherBytesOut,
		&c.Triples, &c.OpenedWords, &c.GCGates, &c.ExtOTs, &c.PlainOps,
	}
}

// Add accumulates another profile into this one.
func (c *CostStats) Add(o CostStats) {
	dst, src := c.Fields(), o.Fields()
	for i := range dst {
		*dst[i] += *src[i]
	}
}

// IsZero reports whether no operation was recorded.
func (c *CostStats) IsZero() bool {
	for _, p := range c.Fields() {
		if *p != 0 {
			return false
		}
	}
	return true
}

// poolHitRate is the fraction of blinding factors served precomputed
// (0..1), or -1 when no factor was drawn at all.
func (c *CostStats) poolHitRate() float64 {
	total := c.PoolHits + c.PoolMisses
	if total == 0 {
		return -1
	}
	return float64(c.PoolHits) / float64(total)
}

// String renders the non-zero fields compactly, the form trace trees and
// log lines embed.
func (c *CostStats) String() string {
	if c == nil || c.IsZero() {
		return "-"
	}
	var parts []string
	for i, p := range c.Fields() {
		if *p != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", costFields[i], *p))
		}
	}
	if rate := c.poolHitRate(); rate >= 0 {
		parts = append(parts, fmt.Sprintf("pool_hit_rate=%.2f", rate))
	}
	return strings.Join(parts, " ")
}

// CostMeter accumulates crypto-op counts concurrently: the kernel's row
// workers, the pool, and the wire layer all add into the same
// per-request meter. Writes are single atomic adds; producers should
// batch locally and Add once per phase where possible so metering stays
// off the hot path.
type CostMeter struct {
	n [len(costFields)]atomic.Uint64 // in costFields order
}

// Add accumulates a batch of counts into the meter. A nil meter is a
// no-op so unmetered paths pay only the nil check.
func (m *CostMeter) Add(st CostStats) {
	if m == nil {
		return
	}
	for i, p := range st.Fields() {
		if *p != 0 {
			m.n[i].Add(*p)
		}
	}
}

// Snapshot reads the meter's current totals.
func (m *CostMeter) Snapshot() CostStats {
	var st CostStats
	if m == nil {
		return st
	}
	for i, p := range st.Fields() {
		*p = m.n[i].Load()
	}
	return st
}

// Diff returns the counts accumulated since a previous snapshot —
// the per-layer attribution pattern: snapshot, run the layer, Diff.
func (m *CostMeter) Diff(prev CostStats) CostStats {
	cur := m.Snapshot()
	c, p := cur.Fields(), prev.Fields()
	for i := range c {
		*c[i] -= *p[i]
	}
	return cur
}

// AddCostToRegistry returns the fold of one served round's cost profile
// into reg, once per field: into the process-wide "cost.<field>" counter
// and, when backend names the executing backend as a lowercase metric-name
// component ("paillier_he", "ss_gc", "clear"), into its live
// "cost.<backend>.<field>" counter. Resolve the fold once and call it per
// round: it looks each counter up at its field's first non-zero count and
// holds it, so it allocates nothing after that. It is safe for concurrent
// use; with a nil reg it folds nothing.
func AddCostToRegistry(reg *Registry, backend string) func(CostStats) {
	if reg == nil {
		return func(CostStats) {}
	}
	var total, per [len(costFields)]atomic.Pointer[Counter]
	return func(st CostStats) {
		for i, p := range st.Fields() {
			if *p == 0 {
				continue
			}
			c := total[i].Load()
			if c == nil {
				c = reg.Counter("cost." + costFields[i])
				total[i].Store(c)
			}
			c.Add(*p)
			if backend == "" {
				continue
			}
			if c = per[i].Load(); c == nil {
				c = reg.LiveCounter("cost." + backend + "." + costFields[i])
				per[i].Store(c)
			}
			c.Add(*p)
		}
	}
}
