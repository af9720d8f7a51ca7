package paillier

import (
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	"sync/atomic"
	"testing"
	"time"
)

var errEntropy = errors.New("simulated entropy outage")

// flakyReader fails its first `failures` reads with errEntropy, then
// delegates to the underlying reader — a transient entropy outage.
type flakyReader struct {
	failures atomic.Int64
	under    io.Reader
}

func (f *flakyReader) Read(p []byte) (int, error) {
	if f.failures.Add(-1) >= 0 {
		return 0, errEntropy
	}
	return f.under.Read(p)
}

// TestPoolWorkersSurviveRandFailures: fill workers must retry with backoff
// on randomness errors instead of exiting, keep the alive gauge at the
// construction count, and resume producing usable factors.
func TestPoolWorkersSurviveRandFailures(t *testing.T) {
	k := key(t)
	fr := &flakyReader{under: rand.Reader}
	fr.failures.Store(3)
	p := NewPool(&k.PublicKey, fr, 4, 2)
	defer p.Close()

	deadline := time.Now().Add(10 * time.Second)
	for p.Retries() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.Retries() == 0 {
		t.Fatal("workers never observed a randomness failure")
	}
	if got := p.AliveWorkers(); got != 2 {
		t.Fatalf("AliveWorkers = %d after failures, want 2", got)
	}
	// Wait for the outage to end (all queued failures consumed).
	for fr.failures.Load() >= 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fr.failures.Load() >= 0 {
		t.Fatal("outage never drained")
	}
	// The pool must recover and serve blinding factors that encrypt.
	rn := waitReady(t, p)
	if rn.Sign() <= 0 {
		t.Fatal("blinding factor not positive")
	}
	ct, err := k.encryptWithBlinding(big.NewInt(-42), rn)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.DecryptInt64(ct)
	if err != nil {
		t.Fatal(err)
	}
	if got != -42 {
		t.Fatalf("round trip after recovery: %d", got)
	}
}

// TestPoolPrecomputeHookCountsBackgroundModExps: every factor the fill
// workers precompute fires the hook exactly once — the off-path modexp
// accounting the serving plane folds into its cost.modexps counter. A
// consumed-and-refilled factor is charged again (it cost another
// exponentiation); a miss is the Evaluator's, and its meter records it.
func TestPoolPrecomputeHookCountsBackgroundModExps(t *testing.T) {
	k := key(t)
	var precomputed atomic.Uint64
	p := NewPool(&k.PublicKey, rand.Reader, 3, 1, WithPrecomputeHook(func(n uint64) {
		precomputed.Add(n)
	}))
	defer p.Close()

	deadline := time.Now().Add(10 * time.Second)
	for precomputed.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := precomputed.Load(); got < 3 {
		t.Fatalf("precompute hook fired %d times, want >= pool size 3", got)
	}

	// Draining one pooled factor makes the worker replace it: the hook
	// total must grow past the initial fill.
	before := precomputed.Load()
	if p.ready() == nil {
		t.Fatal("no factor ready after the initial fill")
	}
	for precomputed.Load() == before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if precomputed.Load() == before {
		t.Fatal("consumed factor was never replaced (hook did not fire again)")
	}
}

// waitReady returns the pool's next precomputed factor, waiting for the
// fill workers up to ten seconds.
func waitReady(t *testing.T, p *Pool) *big.Int {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if rn := p.ready(); rn != nil {
			return rn
		}
	}
	t.Fatal("pool never served a factor")
	return nil
}

// TestPoolCloseStopsWorkers: after Close the alive gauge drains to zero,
// even while the reader is failing (workers must exit from the backoff
// sleep, not hang in it).
func TestPoolCloseStopsWorkers(t *testing.T) {
	k := key(t)
	fr := &flakyReader{under: rand.Reader}
	fr.failures.Store(1 << 30) // fail forever
	p := NewPool(&k.PublicKey, fr, 2, 3)
	if got := p.AliveWorkers(); got != 3 {
		t.Fatalf("AliveWorkers = %d at start, want 3", got)
	}
	p.Close()
	if got := p.AliveWorkers(); got != 0 {
		t.Fatalf("AliveWorkers = %d after Close, want 0", got)
	}
}
