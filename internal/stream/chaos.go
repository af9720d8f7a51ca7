package stream

import (
	"errors"
	"fmt"
	mathrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the fault-injection harness for the serving plane: a
// deterministic wrapper around a net.Conn that injects the failures
// hostile reality produces — latency spikes and connection resets — so
// `ppbench chaos` can prove the runtime degrades gracefully instead of
// only ever exercising the happy path.
//
// Determinism follows the obfuscate.NewSeeded contract: every injection
// decision is drawn from a math/rand generator seeded by ChaosConfig.Seed,
// so a single-goroutine schedule replays exactly and a concurrent one
// replays statistically. Chaos wrappers must never feed a production
// code path — they exist to break things on purpose.

// ErrChaosReset is returned by chaos wrappers after an injected
// connection reset; the underlying transport is dead from that point on.
var ErrChaosReset = errors.New("stream: chaos injected connection reset")

// ChaosConfig parameterizes fault injection. Both probabilities are per
// operation (one Read or Write) in [0, 1]; zero disables that fault class.
type ChaosConfig struct {
	// Seed makes the injection schedule reproducible (NewSeeded-style:
	// same seed, same operation sequence, same faults).
	Seed int64
	// DelayProb injects a uniform delay in [DelayMin, DelayMax].
	DelayProb float64
	DelayMin  time.Duration
	DelayMax  time.Duration
	// ResetProb kills the transport: the operation fails with
	// ErrChaosReset, the underlying conn is closed, and every later
	// operation fails the same way.
	ResetProb float64
}

// ChaosStats counts the faults a wrapper actually injected.
type ChaosStats struct {
	Delays uint64
	Resets uint64
}

// ChaosConn wraps a net.Conn with byte-level fault injection: delays on
// both directions and connection resets that close the underlying conn.
// Wrap the conn BEFORE handing it to NewTCPEdge so the whole frame codec
// rides the injected transport.
type ChaosConn struct {
	net.Conn
	cfg ChaosConfig

	// mu guards rng: Read and Write may race.
	mu  sync.Mutex
	rng *mathrand.Rand

	delays atomic.Uint64
	resets atomic.Uint64
	dead   atomic.Bool
}

// NewChaosConn wraps conn with deterministic fault injection.
func NewChaosConn(conn net.Conn, cfg ChaosConfig) *ChaosConn {
	if cfg.DelayMax < cfg.DelayMin {
		cfg.DelayMax = cfg.DelayMin
	}
	return &ChaosConn{Conn: conn, cfg: cfg, rng: mathrand.New(mathrand.NewSource(cfg.Seed))}
}

// Stats reports the faults injected so far.
func (c *ChaosConn) Stats() ChaosStats {
	return ChaosStats{Delays: c.delays.Load(), Resets: c.resets.Load()}
}

// inject draws one operation's faults — a delay, which it sleeps, and a
// reset, which it carries out — and returns the error the operation fails
// with, nil when it goes ahead.
func (c *ChaosConn) inject() error {
	if c.dead.Load() {
		return fmt.Errorf("stream: chaos conn: %w", ErrChaosReset)
	}
	var delay time.Duration
	cfg := &c.cfg
	c.mu.Lock()
	if cfg.DelayProb > 0 && c.rng.Float64() < cfg.DelayProb {
		delay = cfg.DelayMin
		if span := cfg.DelayMax - cfg.DelayMin; span > 0 {
			delay += time.Duration(c.rng.Int63n(int64(span) + 1))
		}
	}
	reset := cfg.ResetProb > 0 && c.rng.Float64() < cfg.ResetProb
	c.mu.Unlock()
	if delay > 0 {
		c.delays.Add(1)
		time.Sleep(delay)
	}
	if reset {
		c.resets.Add(1)
		c.dead.Store(true)
		c.Conn.Close()
		return fmt.Errorf("stream: chaos conn: %w", ErrChaosReset)
	}
	return nil
}

// Read implements net.Conn.
func (c *ChaosConn) Read(p []byte) (int, error) {
	if err := c.inject(); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn.
func (c *ChaosConn) Write(p []byte) (int, error) {
	if err := c.inject(); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}
