package paillier

import (
	"io"
	"math/big"
	"sync"
	"sync/atomic"
	"time"
)

// Pool precomputes encryption blinding factors r^n mod n² in background
// goroutines so that the latency-critical encryption path reduces to two
// modular multiplications. The data provider's re-encryption step
// (paper Fig. 3, step 2.3) sits on the inference critical path, so hiding
// the r^n exponentiation off-path is one of the practical optimizations
// the streaming design enables: blinding factors are produced while other
// pipeline stages run. The model provider's linear kernel draws from its
// own Pool to re-randomize its outputs (Pool implements Blinder). A Pool
// precomputes with the sampler of whoever built it: NewPool for a party
// that knows only n, NewPrivatePool for the key holder.
type Pool struct {
	pk           *PublicKey
	src          sampler
	ch           chan *big.Int
	closeCh      chan struct{}
	wg           sync.WaitGroup
	alive        atomic.Int64
	retries      atomic.Uint64
	onPrecompute func(n uint64)
}

// PoolOption configures optional Pool behaviour at construction.
type PoolOption func(*Pool)

// WithPrecomputeHook registers fn to be called once per blinding factor
// the fill workers precompute in the background, with the number of
// exponentiations it cost (one full r^n under NewPool, two half-size
// ones under NewPrivatePool). That work never shows up in any
// request's cost meter (it happens off-path, before the request that
// will consume it exists), so the serving plane uses this hook to charge
// those exponentiations into the process-wide "cost.modexps" counter —
// otherwise a warm pool makes the server's modexp accounting read zero
// while a fill worker burns CPU. fn is called from the fill goroutines
// and must be safe for concurrent use.
func WithPrecomputeHook(fn func(n uint64)) PoolOption {
	return func(p *Pool) { p.onPrecompute = fn }
}

// NewPool starts workers goroutines filling a buffer of capacity size with
// fresh blinding factors computed from the public key alone (one full
// r^n exponentiation each). Close must be called to release the workers.
func NewPool(pk *PublicKey, random io.Reader, size, workers int, opts ...PoolOption) *Pool {
	return newPool(pk, pk.sampler(random), size, workers, opts)
}

// NewPrivatePool is NewPool for the key holder: the fill workers and the
// inline fallback on an empty buffer both draw from the CRT sampler (see
// PrivateKey.freshBlinding), so no encryption by the data provider pays
// the public-key price whether or not it hits the pool.
func NewPrivatePool(sk *PrivateKey, random io.Reader, size, workers int, opts ...PoolOption) *Pool {
	return newPool(&sk.PublicKey, sk.sampler(random), size, workers, opts)
}

func newPool(pk *PublicKey, src sampler, size, workers int, opts []PoolOption) *Pool {
	if size < 1 {
		size = 1
	}
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		pk:      pk,
		src:     src,
		ch:      make(chan *big.Int, size),
		closeCh: make(chan struct{}),
	}
	for _, opt := range opts {
		opt(p)
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		p.alive.Add(1)
		go p.fill()
	}
	return p
}

// fillBackoffStart is the first retry delay after a randomness read
// failure; it doubles up to fillBackoffMax.
const (
	fillBackoffStart = 5 * time.Millisecond
	fillBackoffMax   = time.Second
)

func (p *Pool) fill() {
	defer p.wg.Done()
	defer p.alive.Add(-1)
	backoff := fillBackoffStart
	for {
		rn, err := p.src.Blinding()
		if err != nil {
			// Transient randomness failure: back off and retry instead of
			// exiting — a dead worker would silently degrade every future
			// Encrypt to the slow inline path for the pool's lifetime.
			p.retries.Add(1)
			select {
			case <-p.closeCh:
				return
			case <-time.After(backoff):
			}
			if backoff < fillBackoffMax {
				backoff *= 2
			}
			continue
		}
		backoff = fillBackoffStart
		if p.onPrecompute != nil {
			p.onPrecompute(p.src.modExps)
		}
		select {
		case p.ch <- rn:
		case <-p.closeCh:
			return
		}
	}
}

// AliveWorkers reports how many fill workers are currently running —
// exposed as the "pool.workers.alive" gauge. It equals the construction
// worker count until Close; a lower value indicates lost producers.
func (p *Pool) AliveWorkers() int64 { return p.alive.Load() }

// Retries reports how many randomness read failures the fill workers
// have retried.
func (p *Pool) Retries() uint64 { return p.retries.Load() }

// Blinding returns a precomputed r^n factor when one is ready, computing
// one inline otherwise. It implements Blinder for the linear kernel's
// output re-randomization.
func (p *Pool) Blinding() (*big.Int, error) {
	rn, _, err := p.BlindingTracked()
	return rn, err
}

// BlindingTracked is Blinding plus whether the factor was served
// precomputed (true) or exponentiated inline because the buffer was empty
// (false) — the hit/miss signal cost accounting records.
func (p *Pool) BlindingTracked() (*big.Int, bool, error) {
	select {
	case rn := <-p.ch:
		return rn, true, nil
	default:
		rn, err := p.src.Blinding()
		return rn, false, err
	}
}

// Encrypt encrypts m using a pooled blinding factor when one is ready,
// falling back to computing one inline otherwise.
func (p *Pool) Encrypt(m *big.Int) (*Ciphertext, error) {
	ct, _, err := p.EncryptTracked(m)
	return ct, err
}

// EncryptTracked is Encrypt plus the pool hit/miss signal for cost
// accounting.
func (p *Pool) EncryptTracked(m *big.Int) (*Ciphertext, bool, error) {
	rn, pooled, err := p.BlindingTracked()
	if err != nil {
		return nil, false, err
	}
	ct, err := p.pk.EncryptWithBlinding(m, rn)
	return ct, pooled, err
}

// EncryptInt64 encrypts a signed 64-bit message via the pool.
func (p *Pool) EncryptInt64(m int64) (*Ciphertext, error) {
	return p.Encrypt(big.NewInt(m))
}

// Close stops the background workers. Pending pooled factors are
// discarded.
func (p *Pool) Close() {
	close(p.closeCh)
	p.wg.Wait()
}
