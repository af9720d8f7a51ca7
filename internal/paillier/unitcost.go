package paillier

import (
	"errors"
	"math/big"
	"sync"
	"time"

	"ppstream/internal/obs"
)

// UnitCosts is what one of each operation the cost meter counts takes at
// one key size, in seconds. With an exact operation count (CountRows,
// PackMulMods, and the encryptions and decryptions a round implies) it
// prices work without running it: core.NewEngine prices its stages this
// way for the paper's load-balanced allocation.
type UnitCosts struct {
	// MulMod is one multiplication modulo n² through the kernel's modMul.
	MulMod float64
	// ModInverse is one inversion modulo n².
	ModInverse float64
	// Encrypt is one encryption by the key holder, its CRT blinding factor
	// included.
	Encrypt float64
	// Decrypt is one CRT decryption.
	Decrypt float64
	// Blinding is one public r^n mod n²: the factor of a re-randomization
	// when no pool has one ready.
	Blinding float64
	// ScalarExp is one ciphertext raised to a 16-bit scalar: the
	// exponentiation an affine op (BatchNorm, ElemScale) runs per element.
	ScalarExp float64
}

// Price returns what the operations st counts take at these unit costs,
// in seconds, pricing each operation once. st must count a pass with no
// blinding pool, where every factor was computed inline:
//
//   - an encryption is priced whole — its CRT factor (the two ModExps the
//     key holder's sampler counts) and the two MulMods EncryptTensor counts
//     for it;
//   - a decryption whole — the two half-size ModExps counted for it;
//   - a re-randomization at its public r^n (one ModExp); the multiply that
//     applies it is among MulMods;
//   - the MulMods, ModInverses and ModExps left over at MulMod, ModInverse
//     and ScalarExp.
func (u UnitCosts) Price(st obs.CostStats) float64 {
	f := func(n uint64) float64 { return float64(n) }
	mulMods := f(st.MulMods) - 2*f(st.Encrypts)
	scalarExps := f(st.ModExps) - 2*f(st.Encrypts) - 2*f(st.Decrypts) - f(st.Rerands)
	return f(st.Encrypts)*u.Encrypt + f(st.Decrypts)*u.Decrypt + f(st.Rerands)*u.Blinding +
		mulMods*u.MulMod + f(st.ModInverses)*u.ModInverse + scalarExps*u.ScalarExp
}

var (
	unitMu    sync.Mutex
	unitCache = map[int]UnitCosts{}
)

// unitSweeps is the fewest sweeps MeasureUnitCosts makes, and unitSpan
// the least time its sweeps last: at 256 bits a sweep takes a fraction of
// a millisecond, at 2048 bits tens of milliseconds.
const (
	unitSweeps = 3
	unitSpan   = 4 * time.Millisecond
)

// MeasureUnitCosts times each operation under sk and returns its unit
// costs. It measures once per key size per process, in sweeps that time
// every operation once, and keeps each operation's fastest trial:
// interference from the rest of the host only ever inflates a trial, and a
// burst of it shorter than the sweeps' span leaves some trial of every
// operation clean.
func MeasureUnitCosts(sk *PrivateKey) (UnitCosts, error) {
	unitMu.Lock()
	defer unitMu.Unlock()
	if u, ok := unitCache[sk.Bits()]; ok {
		return u, nil
	}
	ct, err := sk.Encrypt(nil, big.NewInt(12345))
	if err != nil {
		return UnitCosts{}, err
	}
	rn, err := sk.freshBlinding(nil)
	if err != nil {
		return UnitCosts{}, err
	}
	mm := modMul{m: sk.N2, mu: reciprocal(sk.N2)}
	var dst big.Int
	var u UnitCosts
	ops := []struct {
		unit *float64
		reps int
		op   func() error
	}{
		{&u.MulMod, 32, func() error { mm.mul(&dst, ct.c, rn); return nil }},
		{&u.ModInverse, 1, func() error {
			if dst.ModInverse(ct.c, sk.N2) == nil {
				return errors.New("paillier: unit cost: ciphertext not invertible")
			}
			return nil
		}},
		{&u.Encrypt, 1, func() error { _, err := sk.Encrypt(nil, big.NewInt(12345)); return err }},
		{&u.Decrypt, 1, func() error { _, err := sk.Decrypt(ct); return err }},
		{&u.Blinding, 1, func() error { _, err := sk.PublicKey.freshBlinding(nil); return err }},
		{&u.ScalarExp, 1, func() error { _, err := sk.MulScalarInt64(ct, 1<<16-1); return err }},
	}
	for sweep, begin := 0, time.Now(); sweep < unitSweeps || time.Since(begin) < unitSpan; sweep++ {
		for _, m := range ops {
			start := time.Now()
			for i := 0; i < m.reps; i++ {
				if err := m.op(); err != nil {
					return UnitCosts{}, err
				}
			}
			if took := time.Since(start).Seconds() / float64(m.reps); sweep == 0 || took < *m.unit {
				*m.unit = took
			}
		}
	}
	unitCache[sk.Bits()] = u
	return u, nil
}
