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

// retrySleep waits out a backoff honouring ctx, whose cause it returns.
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
		return context.Cause(ctx)
	}
}

// Redialer retries whole inferences across session failures: when an
// Infer fails with ErrSessionDown it backs off, redials a fresh session,
// and tries again until the policy's attempts run out. Any other error,
// a throttle or shed refusal the client has given up on and a refused
// session included, fails through: the client's own round-0 resends are
// the one loop for throttle and shed.
// Safe for concurrent use; concurrent Infers share one live client, and
// concurrent failures of one session redial it once.
//
// Retrying a whole inference on a torn session is always safe: it
// destroys all per-request state on both sides.
type Redialer struct {
	dial    func(ctx context.Context) (*Client, error)
	policy  RetryPolicy
	redials *obs.Counter

	mu     sync.Mutex
	client *Client // nil: the next attempt dials
	dialed bool
}

// NewRedialer wraps dial with retry-and-redial. dial is invoked lazily
// on first use and again after a session failure. reg (may be nil)
// receives "retry.redials".
func NewRedialer(dial func(ctx context.Context) (*Client, error), policy RetryPolicy, reg *obs.Registry) *Redialer {
	return &Redialer{dial: dial, policy: policy.withDefaults(), redials: reg.Counter("retry.redials")}
}

// get returns the live client, dialing one if there is none. A failed dial
// is a session down, unless the session was refused (ErrRefused): its
// parties answered each other.
func (r *Redialer) get(ctx context.Context) (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.client == nil {
		c, err := r.dial(ctx)
		if errors.Is(err, ErrRefused) {
			return nil, err
		}
		if err != nil {
			return nil, fmt.Errorf("%w: dial: %w", ErrSessionDown, err)
		}
		if r.dialed {
			r.redials.Inc()
		}
		r.client, r.dialed = c, true
	}
	return r.client, nil
}

// drop closes c, whose session went down, unless a redial already
// replaced it.
func (r *Redialer) drop(c *Client) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.client == c {
		r.client = nil
		go c.Close()
	}
}

// Infer runs one inference, redialing and retrying it under the policy
// while it fails with ErrSessionDown; any other error fails at once.
func (r *Redialer) Infer(ctx context.Context, x *tensor.Dense) (*tensor.Dense, error) {
	var err error
	for attempt := 1; attempt <= r.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			if err := retrySleep(ctx, r.policy.backoff(attempt-1)); err != nil {
				return nil, err
			}
		}
		var c *Client
		if c, err = r.get(ctx); err == nil {
			var res *tensor.Dense
			if res, err = c.Infer(ctx, x); err == nil {
				return res, nil
			}
			if errors.Is(err, ErrSessionDown) {
				r.drop(c)
			}
		}
		if !errors.Is(err, ErrSessionDown) || ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("protocol: retries exhausted: %w", err)
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
