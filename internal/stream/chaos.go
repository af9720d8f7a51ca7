package stream

import (
	"context"
	"errors"
	"fmt"
	mathrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the fault-injection harness for the serving plane: a
// deterministic wrapper around an Edge or a net.Conn that injects the
// failures hostile reality produces — latency spikes, silent message
// loss, connection resets, corrupted byte streams — so tests and
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

// ChaosConfig parameterizes fault injection. All probabilities are per
// operation (one Send/Recv for edges, one Read/Write for conns) in
// [0, 1]; zero disables that fault class.
type ChaosConfig struct {
	// Seed makes the injection schedule reproducible (NewSeeded-style:
	// same seed, same operation sequence, same faults).
	Seed int64
	// DelayProb injects a uniform delay in [DelayMin, DelayMax].
	DelayProb float64
	DelayMin  time.Duration
	DelayMax  time.Duration
	// DropProb silently discards a message (edges only): the sender
	// believes it was delivered, the receiver never sees it.
	DropProb float64
	// ResetProb kills the transport: the operation fails with
	// ErrChaosReset, the underlying conn (if any) is closed, and every
	// later operation fails the same way.
	ResetProb float64
	// CorruptProb flips one random bit of a written buffer (conns only),
	// corrupting the peer's frame stream mid-frame.
	CorruptProb float64
}

// ChaosStats counts the faults a wrapper actually injected.
type ChaosStats struct {
	Delays   uint64
	Drops    uint64
	Resets   uint64
	Corrupts uint64
}

// chaosCore is the shared decision engine: a seeded generator behind a
// mutex (Send/Recv and Read/Write may race) plus injection counters.
type chaosCore struct {
	cfg ChaosConfig

	mu  sync.Mutex
	rng *mathrand.Rand

	delays   atomic.Uint64
	drops    atomic.Uint64
	resets   atomic.Uint64
	corrupts atomic.Uint64
	dead     atomic.Bool
}

func newChaosCore(cfg ChaosConfig) *chaosCore {
	if cfg.DelayMax < cfg.DelayMin {
		cfg.DelayMax = cfg.DelayMin
	}
	return &chaosCore{cfg: cfg, rng: mathrand.New(mathrand.NewSource(cfg.Seed))}
}

// roll draws one injection decision: a delay to sleep (0 = none), a drop,
// and/or a reset. Exactly one lock acquisition per operation.
func (c *chaosCore) roll(drop, corrupt bool) (delay time.Duration, dropped, reset, corrupted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cfg := c.cfg
	if cfg.DelayProb > 0 && c.rng.Float64() < cfg.DelayProb {
		delay = cfg.DelayMin
		if span := cfg.DelayMax - cfg.DelayMin; span > 0 {
			delay += time.Duration(c.rng.Int63n(int64(span) + 1))
		}
	}
	if drop && cfg.DropProb > 0 && c.rng.Float64() < cfg.DropProb {
		dropped = true
	}
	if corrupt && cfg.CorruptProb > 0 && c.rng.Float64() < cfg.CorruptProb {
		corrupted = true
	}
	if cfg.ResetProb > 0 && c.rng.Float64() < cfg.ResetProb {
		reset = true
	}
	return delay, dropped, reset, corrupted
}

func (c *chaosCore) stats() ChaosStats {
	return ChaosStats{
		Delays:   c.delays.Load(),
		Drops:    c.drops.Load(),
		Resets:   c.resets.Load(),
		Corrupts: c.corrupts.Load(),
	}
}

// ChaosEdge wraps an Edge with fault injection on both directions:
// delays and resets on Send and Recv, silent drops on Send. After an
// injected reset every operation fails with ErrChaosReset, mimicking a
// torn connection.
type ChaosEdge struct {
	inner Edge
	core  *chaosCore
}

// NewChaosEdge wraps inner with deterministic fault injection.
func NewChaosEdge(inner Edge, cfg ChaosConfig) *ChaosEdge {
	return &ChaosEdge{inner: inner, core: newChaosCore(cfg)}
}

// Stats reports the faults injected so far.
func (e *ChaosEdge) Stats() ChaosStats { return e.core.stats() }

// sleep waits out an injected delay, honouring ctx.
func chaosSleep(ctx context.Context, d time.Duration) error {
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

// Send implements Edge.
func (e *ChaosEdge) Send(ctx context.Context, m *Message) error {
	if e.core.dead.Load() {
		return ErrChaosReset
	}
	delay, dropped, reset, _ := e.core.roll(true, false)
	if delay > 0 {
		e.core.delays.Add(1)
		if err := chaosSleep(ctx, delay); err != nil {
			return err
		}
	}
	if reset {
		e.core.resets.Add(1)
		e.core.dead.Store(true)
		return ErrChaosReset
	}
	if dropped {
		e.core.drops.Add(1)
		return nil // the caller believes the message was delivered
	}
	return e.inner.Send(ctx, m)
}

// Recv implements Edge.
func (e *ChaosEdge) Recv(ctx context.Context) (*Message, error) {
	if e.core.dead.Load() {
		return nil, ErrChaosReset
	}
	m, err := e.inner.Recv(ctx)
	if err != nil {
		return nil, err
	}
	delay, _, reset, _ := e.core.roll(false, false)
	if delay > 0 {
		e.core.delays.Add(1)
		if err := chaosSleep(ctx, delay); err != nil {
			return nil, err
		}
	}
	if reset {
		e.core.resets.Add(1)
		e.core.dead.Store(true)
		return nil, ErrChaosReset
	}
	return m, nil
}

// CloseSend implements Edge. A reset edge swallows the close: the peer
// already sees the transport as torn.
func (e *ChaosEdge) CloseSend() error {
	if e.core.dead.Load() {
		return nil
	}
	return e.inner.CloseSend()
}

// ChaosConn wraps a net.Conn with byte-level fault injection: delays on
// both directions, single-bit corruption of written buffers (the peer's
// frame decoder sees a poisoned stream), and connection resets that close
// the underlying conn. Wrap the conn BEFORE handing it to NewTCPEdge so
// the whole frame codec rides the injected transport.
type ChaosConn struct {
	net.Conn
	core *chaosCore
}

// NewChaosConn wraps conn with deterministic fault injection.
func NewChaosConn(conn net.Conn, cfg ChaosConfig) *ChaosConn {
	return &ChaosConn{Conn: conn, core: newChaosCore(cfg)}
}

// Stats reports the faults injected so far.
func (c *ChaosConn) Stats() ChaosStats { return c.core.stats() }

func (c *ChaosConn) reset() error {
	c.core.resets.Add(1)
	c.core.dead.Store(true)
	c.Conn.Close()
	return fmt.Errorf("stream: chaos conn: %w", ErrChaosReset)
}

// Read implements net.Conn.
func (c *ChaosConn) Read(p []byte) (int, error) {
	if c.core.dead.Load() {
		return 0, fmt.Errorf("stream: chaos conn: %w", ErrChaosReset)
	}
	delay, _, reset, _ := c.core.roll(false, false)
	if delay > 0 {
		c.core.delays.Add(1)
		time.Sleep(delay)
	}
	if reset {
		return 0, c.reset()
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn.
func (c *ChaosConn) Write(p []byte) (int, error) {
	if c.core.dead.Load() {
		return 0, fmt.Errorf("stream: chaos conn: %w", ErrChaosReset)
	}
	delay, _, reset, corrupted := c.core.roll(false, true)
	if delay > 0 {
		c.core.delays.Add(1)
		time.Sleep(delay)
	}
	if reset {
		return 0, c.reset()
	}
	if corrupted && len(p) > 0 {
		c.core.corrupts.Add(1)
		c.core.mu.Lock()
		bit := c.core.rng.Intn(len(p) * 8)
		c.core.mu.Unlock()
		mutated := make([]byte, len(p))
		copy(mutated, p)
		mutated[bit/8] ^= 1 << (bit % 8)
		p = mutated
	}
	return c.Conn.Write(p)
}
