package protocol

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ppstream/internal/obs"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// TestSessionEvictionRaceTypedError: a round frame arriving after the
// janitor evicted the request's state must get a clean typed
// CodeEvicted error frame — not stale permutation state — and the
// session must keep serving new requests. Run under -race.
func TestSessionEvictionRaceTypedError(t *testing.T) {
	h := open(t, opening{tcp: true, raw: true, cfg: SessionConfig{IdleTTL: 60 * time.Millisecond}})
	edge, reg, ctx := h.edge, h.reg, h.ctx
	h.send(1, h.roundZero(1, tensor.Zeros(4)))
	reply, err := edge.Recv(ctx)
	if err != nil || reply.Err != nil {
		t.Fatalf("round 0: %v %q", err, reply.Err)
	}
	// Build a legitimate round-1 frame from the reply, but stall past the
	// idle TTL first so the janitor evicts the request under us.
	next := h.roundOne(1, reply)
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Counters["requests.evicted"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := edge.Send(ctx, &stream.Message{Seq: 1, Payload: next}); err != nil {
		t.Fatal(err)
	}
	late, err := edge.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if late.Err == nil {
		t.Fatal("late round frame for evicted request was processed against stale state")
	}
	if !errors.Is(late.Err, ErrEvicted) {
		t.Errorf("late round error %v, want ErrEvicted", late.Err)
	}
	if got := reg.Snapshot().Counters["requests.stale_rounds"]; got != 1 {
		t.Errorf("requests.stale_rounds = %d", got)
	}
	// The session survives: a fresh request completes normally.
	h.send(2, h.roundZero(2, tensor.Zeros(4)))
	if reply, err := edge.Recv(ctx); err != nil || reply.Err != nil {
		t.Fatalf("fresh request after eviction: %v %q", err, reply.Err)
	}
	edge.CloseSend()
	if err := h.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestSessionDeadlineEviction: a request whose propagated deadline
// expires mid-protocol is evicted by the janitor ahead of the idle TTL
// (TTL 400ms -> 100ms ticks; the 30ms budget expires long before the
// idle cutoff) and is accounted by the deadline counter, not the idle
// one.
func TestSessionDeadlineEviction(t *testing.T) {
	h := open(t, opening{tcp: true, raw: true, cfg: SessionConfig{IdleTTL: 400 * time.Millisecond}})
	edge, reg := h.edge, h.reg
	f := h.roundZero(7, tensor.Zeros(4))
	f.DeadlineMS = 30
	h.send(7, f)
	reply, err := edge.Recv(h.ctx)
	if err != nil || reply.Err != nil {
		t.Fatalf("round 0: %v %q", err, reply.Err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := reg.Snapshot()
		if snap.Counters["requests.deadline_evicted"] == 1 {
			if snap.Counters["requests.evicted"] != 0 {
				t.Errorf("deadline-expired request double-counted as idle eviction")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deadline-expired request never evicted: %+v", snap.Counters)
		}
		time.Sleep(10 * time.Millisecond)
	}
	edge.CloseSend()
	if err := h.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestSessionShedTypedRejection: with a shared in-flight bound of 1, a
// second request's first round is rejected with CodeShed while the
// first is mid-protocol, and admitted once the first completes — the
// slot is released with the request, not leaked.
func TestSessionShedTypedRejection(t *testing.T) {
	reg := obs.NewRegistry("shed-session")
	gate, err := NewGate(GateConfig{MaxInFlight: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := open(t, opening{tcp: true, raw: true, cfg: SessionConfig{Gate: gate, Registry: reg}})
	edge, ctx := h.edge, h.ctx
	h.send(1, h.roundZero(1, tensor.Zeros(4)))
	reply, err := edge.Recv(ctx)
	if err != nil || reply.Err != nil {
		t.Fatalf("request 1 round 0: %v %q", err, reply.Err)
	}
	// Request 1 holds the only slot mid-protocol: request 2 must shed.
	h.send(2, h.roundZero(2, tensor.Zeros(4)))
	shedReply, err := edge.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(shedReply.Err, ErrShed) {
		t.Fatalf("second request not shed: err %v", shedReply.Err)
	}
	// Complete request 1 (round 1 is the last for the 2-round net).
	h.send(1, h.roundOne(1, reply))
	if fin, err := edge.Recv(ctx); err != nil || fin.Err != nil {
		t.Fatalf("request 1 final round: %v %q", err, fin.Err)
	}
	// Slot released with the completed request: request 2 now admits.
	h.send(2, h.roundZero(2, tensor.Zeros(4)))
	if retry, err := edge.Recv(ctx); err != nil || retry.Err != nil {
		t.Fatalf("request 2 after release: %v %q", err, retry.Err)
	}
	if got := reg.Snapshot().Counters["shed.rejected.total"]; got != 1 {
		t.Errorf("shed.rejected.total = %d", got)
	}
	edge.CloseSend()
	if err := h.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
	if n := reg.Snapshot().Gauges["shed.inflight"]; n != 0 {
		t.Errorf("gate slots leaked: %d in flight after session close", n)
	}
}

// TestClientRetriesRoundZero: the client transparently retries a typed
// round-0 shed rejection with backoff and succeeds on the next attempt,
// counting the retry; the deadline budget rides every frame.
func TestClientRetriesRoundZero(t *testing.T) {
	reg := obs.NewRegistry("client-retry")
	h := open(t, opening{tcp: true, proto: true, script: true, opts: ClientOptions{
		Workers:  1,
		Deadline: 30 * time.Second,
		Retry:    RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
		Registry: reg,
	}})
	client, ctx, serverEdge := h.client, h.ctx, h.peer

	// Synthetic server: sheds the first round-0 frame it sees, then
	// serves every later frame off the real model provider — a
	// deterministic script for the client's retry path.
	var sawDeadline atomic.Int64
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- func() error {
			rejected := false
			for {
				msg, err := serverEdge.Recv(ctx)
				if err != nil {
					if errors.Is(err, stream.ErrEdgeClosed) {
						return nil
					}
					return err
				}
				frame := msg.Payload.(*roundFrame)
				if frame.DeadlineMS > 0 {
					sawDeadline.Store(frame.DeadlineMS)
				}
				if frame.Round == 0 && !rejected {
					rejected = true
					if err := serverEdge.Send(ctx, &stream.Message{
						Seq: msg.Seq, Err: &stream.CodedError{Code: CodeShed, Msg: "synthetic overload"},
					}); err != nil {
						return err
					}
					continue
				}
				if err := h.answer(msg); err != nil {
					return err
				}
			}
		}()
	}()

	out, err := client.Infer(ctx, tensor.MustFromSlice([]float64{1, 2, 3, 4}, 4))
	if err != nil {
		t.Fatalf("inference did not survive a retryable round-0 rejection: %v", err)
	}
	if out == nil {
		t.Fatal("nil result")
	}
	if got := reg.Snapshot().Counters["retry.attempts"]; got != 1 {
		t.Errorf("retry.attempts = %d, want 1", got)
	}
	if sawDeadline.Load() <= 0 {
		t.Error("deadline budget did not ride the round frames")
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestClientDeadlineLocal: an already-spent budget fails the inference
// locally with ErrDeadline before any frame is sent — terminal, not
// retryable.
func TestClientDeadlineLocal(t *testing.T) {
	h := open(t, opening{tcp: true, cfg: SessionConfig{Registry: obs.NewRegistry("deadline-local")},
		opts: ClientOptions{Workers: 1, Deadline: time.Nanosecond}})
	client := h.client
	_, err := client.Infer(h.ctx, tensor.Zeros(4))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("spent budget returned %v, want ErrDeadline", err)
	}
	if Retryable(err) {
		t.Error("deadline expiry must not be retryable")
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
}

// dupEdge sends every reply to round `round` three times, as a replaying
// peer would.
type dupEdge struct {
	stream.Edge
	round int
}

func (e dupEdge) Send(ctx context.Context, m *stream.Message) error {
	n := 1
	if f, ok := m.Payload.(*roundFrame); ok && f.Round == e.round {
		n = 3
	}
	for i := 0; i < n; i++ {
		if err := e.Edge.Send(ctx, m); err != nil {
			return err
		}
	}
	return nil
}

// TestClientSurvivesDuplicateReplies: a reply that arrives more than once
// neither wedges the session's reader nor is read as another round's.
// Copies of the last round's reply are dropped, so every later request on
// the session completes. Copies of round 0's reply are dropped or fail
// their own request with ErrBadRound, never with a wrong output, and the
// session goes on serving.
func TestClientSurvivesDuplicateReplies(t *testing.T) {
	netw := buildNet(t)
	x := tensor.MustFromSlice([]float64{0.5, -0.25, 1, 0.75}, 4)
	want, err := netw.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, round := range []int{1, 0} {
		h := open(t, opening{tcp: true, net: netw, opts: ClientOptions{Workers: 1},
			answers: func(e stream.Edge) stream.Edge { return dupEdge{e, round} }})
		client, ctx := h.client, h.ctx
		for i := 0; i < 3; i++ {
			reqCtx, done := context.WithTimeout(ctx, 5*time.Second)
			got, err := client.Infer(reqCtx, x)
			done()
			switch {
			case err == nil && !tensor.AllClose(want, got, 1e-2):
				t.Errorf("round %d copies, request %d: output %v, want %v", round, i, got.Data(), want.Data())
			case err != nil && (round != 0 || !errors.Is(err, ErrBadRound)):
				t.Fatalf("round %d copies, request %d: %v", round, i, err)
			}
		}
		if err := client.Close(); err != nil {
			t.Fatal(err)
		}
		if err := h.wait(); err != nil {
			t.Fatalf("server: %v", err)
		}
	}
}
