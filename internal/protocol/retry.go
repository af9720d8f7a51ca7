package protocol

import (
	"context"
	cryptorand "crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"

	"ppstream/internal/obs"
	"ppstream/internal/tensor"
)

// RetryPolicy bounds client-side retries of transient failures. Only
// rejections that are provably stateless — throttle and shed answers to
// a request's first round, and whole inferences on a torn session — are
// ever retried; mid-protocol rounds are non-idempotent (the server's
// permutation state advances per round) and always fail through.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget including the first try;
	// <= 0 uses DefaultRetryAttempts, 1 disables retries.
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff: attempt k sleeps a
	// uniformly jittered duration in (0, BaseBackoff*2^k], capped at
	// MaxBackoff. <= 0 uses DefaultRetryBase.
	BaseBackoff time.Duration
	// MaxBackoff caps a single backoff sleep; <= 0 uses DefaultRetryMax.
	MaxBackoff time.Duration
}

// Defaults for RetryPolicy zero fields.
const (
	DefaultRetryAttempts = 4
	DefaultRetryBase     = 5 * time.Millisecond
	DefaultRetryMax      = 500 * time.Millisecond
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = DefaultRetryBase
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultRetryMax
	}
	return p
}

// backoff returns the jittered sleep before retry attempt (attempt 1 is
// the first retry). Full jitter: uniform in (0, min(base*2^(k-1), max)].
// The protocol package may only use crypto/rand (pplint cryptorand
// gate); the few bytes of entropy per retry are noise next to a Paillier
// exponentiation.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	ceil := p.BaseBackoff
	for i := 1; i < attempt && ceil < p.MaxBackoff; i++ {
		ceil *= 2
	}
	if ceil > p.MaxBackoff {
		ceil = p.MaxBackoff
	}
	if ceil <= 0 {
		return 0
	}
	n, err := cryptorand.Int(cryptorand.Reader, big.NewInt(int64(ceil)))
	if err != nil {
		return ceil // degraded: un-jittered backoff beats no backoff
	}
	return time.Duration(n.Int64()) + 1
}

// sleep waits out a backoff honouring ctx.
func retrySleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Redialer retries whole inferences across session failures: when an
// Infer fails with a retryable error it backs off, redials a fresh
// session if the previous one died, and tries again until the policy's
// attempts run out. Safe for concurrent use; concurrent
// Infers share one live client and redial at most once per generation.
//
// Retrying a whole inference is always safe: a torn session destroys all
// per-request state on both sides, and throttle/shed rejections happen
// before the server creates any.
type Redialer struct {
	dial   func(ctx context.Context) (*Client, error)
	policy RetryPolicy

	mu     sync.Mutex
	client *Client
	gen    uint64

	attempts *obs.Counter
	redials  *obs.Counter
	giveups  *obs.Counter
}

// NewRedialer wraps dial with retry-and-redial. dial is invoked lazily
// on first use and again after a session failure. reg (may be nil)
// receives "retry.attempts", "retry.redials", and "retry.giveups".
func NewRedialer(dial func(ctx context.Context) (*Client, error), policy RetryPolicy, reg *obs.Registry) *Redialer {
	return &Redialer{
		dial: dial, policy: policy.withDefaults(),
		attempts: reg.Counter("retry.attempts"),
		redials:  reg.Counter("retry.redials"),
		giveups:  reg.Counter("retry.giveups"),
	}
}

// get returns the live client, dialing one if needed, along with its
// generation for invalidation.
func (r *Redialer) get(ctx context.Context) (*Client, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.client != nil {
		return r.client, r.gen, nil
	}
	c, err := r.dial(ctx)
	if err != nil {
		return nil, r.gen, fmt.Errorf("%w: dial: %w", ErrSessionDown, err)
	}
	if r.gen > 0 {
		r.redials.Inc()
	}
	r.client = c
	r.gen++
	return c, r.gen, nil
}

// invalidate drops the client of generation gen so the next get dials
// fresh. Concurrent failures of the same generation invalidate once.
func (r *Redialer) invalidate(gen uint64) {
	r.mu.Lock()
	if r.gen == gen && r.client != nil {
		c := r.client
		r.client = nil
		go c.Close()
	}
	r.mu.Unlock()
}

// Infer runs one inference, retrying retryable failures under the
// policy. Non-retryable errors (protocol failures, deadline expiry,
// eviction) fail immediately.
func (r *Redialer) Infer(ctx context.Context, x *tensor.Dense) (*tensor.Dense, error) {
	var lastErr error
	for attempt := 1; attempt <= r.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			r.attempts.Inc()
			if err := retrySleep(ctx, r.policy.backoff(attempt-1)); err != nil {
				return nil, err
			}
		}
		c, gen, err := r.get(ctx)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, err
			}
			continue
		}
		res, err := c.Infer(ctx, x)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if errors.Is(err, ErrSessionDown) {
			r.invalidate(gen)
		}
		if !Retryable(err) || ctx.Err() != nil {
			return nil, err
		}
	}
	r.giveups.Inc()
	return nil, fmt.Errorf("protocol: retries exhausted: %w", lastErr)
}

// Close tears down the live session, if any.
func (r *Redialer) Close() error {
	r.mu.Lock()
	c := r.client
	r.client = nil
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
