package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"time"

	"ppstream/internal/obs"
)

// UnitCosts is what one of each operation the cost meter counts takes at
// one key size, in seconds. With an exact operation count (CountRows,
// PackMulMods, the encryptions and decryptions a round implies, and the
// ss-gc and clear backends' triples, gates, extension OTs and plain ops)
// it prices work without running it: core.NewEngine prices its stages and
// backend.PlanFor its rounds this way.
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
	// Gate is one AND gate of the garbled ReLU garbled and evaluated, with
	// its share of the circuit's free gates.
	Gate float64
	// ExtOT is one extension OT: its share of a batch's bit matrix, the
	// masking and the unmasking.
	ExtOT float64
	// Triple is one Beaver-triple multiplication of the ss-gc linear kernel.
	Triple float64
	// PlainOp is one big-integer multiply-accumulate of the clear backend.
	PlainOp float64
	// Transfer is one ciphertext written out with FillBytes and read back
	// with ParseCiphertext, the copy the wire codec makes of every element:
	// the per-element communication cost c_elem of the simulator's stage
	// model. Price does not use it.
	Transfer float64
}

// Price returns what the operations st counts take at these unit costs,
// in seconds, pricing each operation once. st must count a pass with no
// blinding pool, where every factor was computed inline:
//
//   - an encryption is priced whole — the two ModExps of its CRT factor
//     and the two MulMods PrivateKey.EncryptTensor counts for it;
//   - a decryption whole — the two half-size ModExps counted for it;
//   - a re-randomization at its public r^n (one ModExp); the multiply that
//     applies it is among MulMods;
//   - the MulMods left over at MulMod, the ModInverses at ModInverse: no
//     other operation runs an exponentiation;
//   - garbled AND gates, extension OTs, Beaver triples and plain ops at
//     their own units. Opened share words and ciphertext bytes are not
//     priced.
func (u UnitCosts) Price(st obs.CostStats) float64 {
	f := func(n uint64) float64 { return float64(n) }
	mulMods := f(st.MulMods) - 2*f(st.Encrypts)
	return f(st.Encrypts)*u.Encrypt + f(st.Decrypts)*u.Decrypt + f(st.Rerands)*u.Blinding +
		mulMods*u.MulMod + f(st.ModInverses)*u.ModInverse +
		f(st.GCGates)*u.Gate + f(st.ExtOTs)*u.ExtOT + f(st.Triples)*u.Triple + f(st.PlainOps)*u.PlainOp
}

// Trial is one operation the unit-cost sweeps time: a trial is one call
// of Run, which performs Ops of the operation, and *Unit receives the
// fastest trial's time per operation, in seconds.
type Trial struct {
	Unit *float64
	Ops  int
	Run  func() error
}

// unitSweeps is the fewest sweeps Sweep makes, and unitSpan the least
// time its sweeps last: at 256 bits a sweep takes about a millisecond, so
// the span gives every operation ten or so trials; at 2048 bits a sweep
// takes tens of milliseconds.
const (
	unitSweeps = 3
	unitSpan   = 12 * time.Millisecond
)

// Sweep times the trials in sweeps that run every trial once, and keeps
// each operation's fastest trial: interference from the rest of the host
// only ever inflates a trial, and a burst of it shorter than the sweeps'
// span leaves some trial of every operation clean.
func Sweep(trials []Trial) error {
	for sweep, begin := 0, time.Now(); sweep < unitSweeps || time.Since(begin) < unitSpan; sweep++ {
		for _, t := range trials {
			start := time.Now()
			if err := t.Run(); err != nil {
				return err
			}
			if took := time.Since(start).Seconds() / float64(t.Ops); sweep == 0 || took < *t.Unit {
				*t.Unit = took
			}
		}
	}
	return nil
}

// Trials returns the trials of the Paillier unit costs at a bits-bit key,
// which write into u. They need no key: the key holder's encryption and
// decryption run under standInKey — the same operations on operands of the
// same sizes, with no prime search.
func (u *UnitCosts) Trials(bits int) ([]Trial, error) {
	sk, err := standInKey(bits)
	if err != nil {
		return nil, err
	}
	ct, err := sk.Encrypt(nil, big.NewInt(12345))
	if err != nil {
		return nil, err
	}
	// r^n for r coprime to n is a unit of Z_{n²}, so it has an inverse
	// whatever n's factors.
	rn, err := sk.PublicKey.freshBlinding(nil)
	if err != nil {
		return nil, err
	}
	mm := modMul{m: sk.N2, mu: reciprocal(sk.N2)}
	var dst big.Int
	// batch is how many of the sub-microsecond operations one trial runs.
	const batch = 32
	wire, back := make([]byte, (sk.N2.BitLen()+7)/8), ct
	return []Trial{
		{&u.MulMod, batch, func() error {
			for i := 0; i < batch; i++ {
				mm.mul(&dst, ct.c, rn)
			}
			return nil
		}},
		{&u.Transfer, batch, func() error {
			for i := 0; i < batch; i++ {
				back.FillBytes(wire)
				back = ParseCiphertext(wire)
			}
			return nil
		}},
		{&u.ModInverse, 1, func() error {
			if dst.ModInverse(rn, sk.N2) == nil {
				return errors.New("paillier: unit cost: blinding factor not invertible")
			}
			return nil
		}},
		{&u.Encrypt, 1, func() error { _, err := sk.Encrypt(nil, big.NewInt(12345)); return err }},
		{&u.Decrypt, 1, func() error { _, err := sk.Decrypt(ct); return err }},
		{&u.Blinding, 1, func() error { _, err := sk.PublicKey.freshBlinding(nil); return err }},
	}, nil
}

// smallOdd is the product of the odd primes below 100: a stand-in factor
// coprime to it makes a random r share a factor with n rarely enough that
// the public sampler's retry does not skew its fastest trial.
var smallOdd = func() *big.Int {
	p := big.NewInt(1)
	for _, q := range []int64{3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97} {
		p.Mul(p, big.NewInt(q))
	}
	return p
}()

// standInKey returns a private key for timing only. P and Q are random odd
// bits/2-bit numbers with their top two bits set, so that n has exactly
// bits bits, and the CRT constants are random numbers of their real sizes.
// Every operation runs the key holder's code on operands of the real
// sizes; nothing it encrypts decrypts to the message.
func standInKey(bits int) (*PrivateKey, error) {
	if bits < MinKeyBits || bits%2 != 0 {
		return nil, fmt.Errorf("paillier: unit cost: key size %d is not an even number ≥ %d", bits, MinKeyBits)
	}
	below := func(m *big.Int) (*big.Int, error) { return rand.Int(rand.Reader, m) }
	factor := func() (*big.Int, error) {
		top := new(big.Int).Lsh(one, uint(bits/2))
		for {
			f, err := below(top)
			if err != nil {
				return nil, err
			}
			f.SetBit(f, bits/2-1, 1).SetBit(f, bits/2-2, 1).SetBit(f, 0, 1)
			if new(big.Int).GCD(nil, nil, f, smallOdd).Cmp(one) == 0 {
				return f, nil
			}
		}
	}
	p, err := factor()
	if err != nil {
		return nil, err
	}
	q, err := factor()
	if err != nil {
		return nil, err
	}
	n := new(big.Int).Mul(p, q)
	sk := &PrivateKey{
		PublicKey: PublicKey{N: n, N2: new(big.Int).Mul(n, n)},
		P:         p,
		Q:         q,
		p2:        new(big.Int).Mul(p, p),
		q2:        new(big.Int).Mul(q, q),
		pMinus1:   new(big.Int).Sub(p, one),
		qMinus1:   new(big.Int).Sub(q, one),
		halfN:     new(big.Int).Rsh(n, 1),
	}
	for _, c := range []struct {
		dst **big.Int
		m   *big.Int
	}{{&sk.hp, p}, {&sk.hq, q}, {&sk.qInvP, p}, {&sk.q2InvP2, sk.p2}} {
		if *c.dst, err = below(c.m); err != nil {
			return nil, err
		}
	}
	return sk, nil
}
