package paillier

import (
	"io"
	"math/big"
	"sync"
	"sync/atomic"
	"time"
)

// Pool precomputes the model provider's reply blinding factors r^n mod n²
// in background goroutines, so that re-randomizing a reply (paper Fig. 3,
// the linear stages' output) reduces to one modular multiplication: the
// factors are produced while other pipeline stages run. An Evaluator
// holds one and meters each draw as a hit or a miss; on a miss, when no
// factor is ready, the Evaluator computes one inline from crypto/rand.
// The key holder has no pool: its encryptions draw CRT factors inline
// (PrivateKey.EncryptTensor).
type Pool struct {
	pk           *PublicKey
	random       io.Reader
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
// exponentiations it cost (one full r^n). That work never shows
// up in any request's cost meter (it happens off-path, before the request that
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
// r^n exponentiation each, from random; nil means crypto/rand.Reader).
// Close must be called to release the workers.
func NewPool(pk *PublicKey, random io.Reader, size, workers int, opts ...PoolOption) *Pool {
	if size < 1 {
		size = 1
	}
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		pk:      pk,
		random:  random,
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
		rn, err := p.pk.freshBlinding(p.random)
		if err != nil {
			// Transient randomness failure: back off and retry instead of
			// exiting — a dead worker would silently degrade every future
			// reply to the slow inline path for the pool's lifetime.
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
			p.onPrecompute(1)
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

// ready returns a precomputed factor, or nil when none is ready or p is
// nil. A factor is handed out once.
func (p *Pool) ready() *big.Int {
	if p == nil {
		return nil
	}
	select {
	case rn := <-p.ch:
		return rn
	default:
		return nil
	}
}

// Close stops the background workers. Pending pooled factors are
// discarded.
func (p *Pool) Close() {
	close(p.closeCh)
	p.wg.Wait()
}
