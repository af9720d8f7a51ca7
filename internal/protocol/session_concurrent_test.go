package protocol

import (
	mathrand "math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppstream/internal/obs"
	"ppstream/internal/tensor"
)

// TestSessionConcurrentClients: N goroutines issue interleaved Infer
// calls over ONE TCP session pair. Every request must come back correct
// (no cross-request mixups under wire-level multiplexing), at least 4
// must be in flight simultaneously, and one deliberately failing request
// must complete with its own error without disturbing the others.
// Run under -race in CI.
func TestSessionConcurrentClients(t *testing.T) {
	netw := buildNet(t)
	reg := obs.NewRegistry("session")
	h := open(t, opening{tcp: true, net: netw,
		cfg:  SessionConfig{MaxWorkers: 2, Window: 4, IdleTTL: time.Minute, Registry: reg},
		opts: ClientOptions{Workers: 1, Window: 8}})
	client, ctx := h.client, h.ctx

	const n = 8
	const badSlot = 3
	r := mathrand.New(mathrand.NewSource(321))
	inputs := make([]*tensor.Dense, n)
	for i := range inputs {
		x := tensor.Zeros(4)
		for j := range x.Data() {
			x.Data()[j] = r.NormFloat64()
		}
		inputs[i] = x
	}
	// Wrong input size: the server rejects this request's first linear
	// round; the session and the other requests must be unaffected.
	inputs[badSlot] = tensor.Zeros(9)

	var (
		wg                sync.WaitGroup
		inflight, maxSeen atomic.Int64
		results           = make([]*tensor.Dense, n)
		errs              = make([]error, n)
		start             = make(chan struct{})
	)
	for i := range inputs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			cur := inflight.Add(1)
			for {
				prev := maxSeen.Load()
				if cur <= prev || maxSeen.CompareAndSwap(prev, cur) {
					break
				}
			}
			results[i], errs[i] = client.Infer(ctx, inputs[i])
			inflight.Add(-1)
		}()
	}
	close(start)
	wg.Wait()

	if errs[badSlot] == nil {
		t.Error("bad request did not fail")
	} else if !strings.Contains(errs[badSlot].Error(), "rejected round 0") {
		t.Errorf("bad request error: %v", errs[badSlot])
	}
	for i := range inputs {
		if i == badSlot {
			continue
		}
		if errs[i] != nil {
			t.Fatalf("request %d failed alongside the injected failure: %v", i, errs[i])
		}
		want, _ := netw.Forward(inputs[i])
		if !tensor.AllClose(want, results[i], 1e-2) {
			t.Errorf("request %d result mixed up or diverged", i)
		}
	}
	if got := maxSeen.Load(); got < 4 {
		t.Errorf("max concurrent in-flight inferences %d, want >= 4", got)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
	s := reg.Snapshot()
	if s.Counters["serve.requests.ok"] != n-1 {
		t.Errorf("serve.requests.ok %d, want %d", s.Counters["serve.requests.ok"], n-1)
	}
	if s.Counters["rounds.errors"] == 0 {
		t.Error("injected failure not counted in rounds.errors")
	}
	if s.Gauges["requests.active"] != 0 {
		t.Errorf("requests.active %d after session close, want 0 (state leak)", s.Gauges["requests.active"])
	}
}

// TestSessionIdleEviction: a request abandoned mid-protocol (round 0
// done, round 1 never sent) has its permutation state evicted after the
// session's idle TTL — the server does not leak state for crashed or
// stalled clients.
func TestSessionIdleEviction(t *testing.T) {
	reg := obs.NewRegistry("evict")
	h := open(t, opening{tcp: true, raw: true, opts: ClientOptions{Workers: 1},
		cfg: SessionConfig{IdleTTL: 50 * time.Millisecond, Registry: reg}})
	h.send(1, h.roundZero(1, tensor.Zeros(4)))
	if msg, err := h.edge.Recv(h.ctx); err != nil || msg.Err != nil {
		t.Fatalf("round 0 reply: %v %q", err, msg.Err)
	}
	// Abandon the request: never send round 1. The janitor must evict it.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s := reg.Snapshot()
		if s.Counters["requests.evicted"] == 1 && s.Gauges["requests.active"] == 0 {
			h.edge.CloseSend()
			if err := h.wait(); err != nil {
				t.Fatalf("server: %v", err)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("abandoned request never evicted: %+v", reg.Snapshot().Counters)
}
