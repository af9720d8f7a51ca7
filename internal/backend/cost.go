package backend

import (
	"fmt"
	"math/big"
	"sync"

	"ppstream/internal/garble"
	"ppstream/internal/paillier"
	"ppstream/internal/secshare"
)

// The cost model is counts times unit costs: a round's price on a backend
// is paillier.UnitCosts.Price of the operations that backend would meter
// for it (LayerInfo), at unit costs measured on this host for the
// session's key size — the one function core.NewEngine prices its stages
// with. Nothing here is a hand-set price.

var units struct {
	mu     sync.Mutex
	byBits map[int]paillier.UnitCosts
}

// MeasureUnitCosts returns what one of each metered operation takes at a
// keyBits-bit key, in seconds. It measures once per key size per process,
// in one set of interleaved sweeps keeping each operation's fastest trial
// (paillier.Sweep): the Paillier operations under a stand-in key of that
// size, so a party holding only the public key can measure; the garbled
// ReLU's AND gates and extension OTs; a Beaver-triple multiplication; a
// plain multiply-accumulate.
func MeasureUnitCosts(keyBits int) (paillier.UnitCosts, error) {
	units.mu.Lock()
	defer units.mu.Unlock()
	if u, ok := units.byBits[keyBits]; ok {
		return u, nil
	}
	var u paillier.UnitCosts
	trials, err := u.Trials(keyBits)
	if err != nil {
		return u, err
	}
	gc, err := garble.UnitTrials(&u.Gate, &u.ExtOT)
	if err != nil {
		return u, err
	}
	trials = append(trials, gc...)
	trials = append(trials, tripleTrial(&u.Triple), plainOpTrial(&u.PlainOp))
	if err := paillier.Sweep(trials); err != nil {
		return u, fmt.Errorf("backend: measuring unit costs: %w", err)
	}
	if units.byBits == nil {
		units.byBits = map[int]paillier.UnitCosts{}
	}
	units.byBits[keyBits] = u
	return u, nil
}

// trialOps is how many multiplications the triple and plain-op trials
// batch: enough that a trial lasts tens of microseconds, so the caches the
// sweep's other trials leave cold weigh little in it.
const trialOps = 1024

// tripleTrial times the ss-gc kernel's step: one untruncated Beaver
// multiplication of a private weight with a shared activation, as
// secshare.Engine.DotPrivateInt runs it.
func tripleTrial(unit *float64) paillier.Trial {
	e := secshare.NewEngine(1)
	w := make([]int32, trialOps)
	xs := make([]secshare.Shares, trialOps)
	for i := range w {
		w[i] = int32(i + 1)
		xs[i] = secshare.Shares{S: [2]uint64{uint64(i) << 40, ^uint64(i)}}
	}
	return paillier.Trial{Unit: unit, Ops: trialOps, Run: func() error {
		_, err := e.DotPrivateInt(w, xs, nil)
		return err
	}}
}

// plainOpTrial times the clear backend's step: one big-integer
// multiply-accumulate of an activation with a weight, as the quantized
// ops' ApplyPlain runs it.
func plainOpTrial(unit *float64) paillier.Trial {
	x := big.NewInt(1<<40 + 12345)
	acc, t, w := new(big.Int), new(big.Int), new(big.Int)
	return paillier.Trial{Unit: unit, Ops: trialOps, Run: func() error {
		acc.SetInt64(0)
		for i := int64(1); i <= trialOps; i++ {
			acc.Add(acc, t.Mul(x, w.SetInt64(i)))
		}
		return nil
	}}
}
