package protocol

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppstream/internal/obs"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// These tests pin the session's round queues and round goroutines (the
// paper's staged runtime inside ServeSession): each round's bounded queue,
// its one-frame-at-a-time goroutine, how a failure stays in its frame, and
// how the session ends.

// TestStagesConcurrentSubmitters: many goroutines infer through one
// session at once, and each gets its own input's result.
func TestStagesConcurrentSubmitters(t *testing.T) {
	reg := obs.NewRegistry("concurrent-submitters")
	h := open(t, opening{proto: true, depth: 2, cfg: SessionConfig{Registry: reg, Window: 2}, opts: ClientOptions{Window: 2}})
	c := h.client
	const n = 12
	inputs, want := make([]*tensor.Dense, n), make([]*tensor.Dense, n)
	for i := range inputs {
		inputs[i] = tensor.MustFromSlice([]float64{float64(i) / 4, -1, 0.5, float64(n-i) / 8}, 4)
		var err error
		if want[i], err = h.proto.Infer(uint64(1000+i), inputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.Infer(context.Background(), inputs[i])
			if err != nil {
				t.Error(err)
				return
			}
			if !tensor.AllClose(want[i], got, 0) {
				t.Errorf("request %d got %v, want %v", i, got.Data(), want[i].Data())
			}
		}()
	}
	wg.Wait()
	if got := reg.Snapshot().Counters["rounds.served"]; got != 2*n {
		t.Errorf("rounds.served = %d, want %d", got, 2*n)
	}
}

// TestStagesErrorIsolation: a frame whose round fails gets its own error,
// under its own Seq, and the frame queued behind it in the same round is
// served undisturbed.
func TestStagesErrorIsolation(t *testing.T) {
	c := open(t, opening{proto: true, raw: true, depth: 4})
	c.send(1, c.roundZero(1, tensor.Zeros(9))) // wrong input size
	c.send(2, c.roundZero(2, tensor.Zeros(4)))
	bad := c.recv(CodeNone)
	if bad.Seq != 1 || !strings.Contains(bad.Err.Error(), "input size 9") {
		t.Errorf("failed frame's reply: Seq %d err %v, want Seq 1 failing on its input size", bad.Seq, bad.Err)
	}
	good := c.recv(replyOK)
	if good.Seq != 2 {
		t.Fatalf("reply Seq %d, want 2", good.Seq)
	}
	c.send(2, c.roundOne(2, good))
	c.recv(replyOK)
	c.edge.CloseSend()
	if err := c.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestStagesWindowBounds: a round runs one frame at a time and queues
// Window more; a frame for a full queue stalls the receive loop, so the
// incoming edge fills and the peer's next send waits. Once the round moves
// again, every frame is answered.
func TestStagesWindowBounds(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	hold := func() {
		if calls.Add(1) == 1 {
			close(entered)
			<-gate
		}
	}
	const window = 2
	c := open(t, opening{proto: true, hooks: map[int]func(){0: hold}, raw: true, cfg: SessionConfig{Window: window, IdleTTL: time.Hour}})
	c.send(1, c.roundZero(1, tensor.Zeros(4)))
	<-entered // round 0 holds request 1
	// Two frames fill the queue, the loop holds the next one, and the edge
	// buffers one more.
	for req := uint64(2); req <= window+3; req++ {
		c.send(req, c.roundZero(req, tensor.Zeros(4)))
	}
	blocked, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	next := &stream.Message{Seq: 99, Payload: c.roundZero(99, tensor.Zeros(4))}
	if err := c.edge.Send(blocked, next); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("a send past a full round queue: %v, want it to wait for the stalled receive loop", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("round 0 started %d frames while one was in its handler", n)
	}
	close(gate)
	for req := uint64(1); req <= window+3; req++ {
		if m := c.recv(replyOK); m.Seq != req {
			t.Errorf("reply Seq %d, want %d", m.Seq, req)
		}
	}
	c.edge.CloseSend()
	if err := c.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestStagesClose: when the incoming edge closes with frames still queued,
// the session answers every queued frame before it closes its outgoing
// edge and returns.
func TestStagesClose(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	hold := func() {
		if calls.Add(1) == 1 {
			close(entered)
			<-gate
		}
	}
	c := open(t, opening{proto: true, hooks: map[int]func(){0: hold}, raw: true, depth: 4, cfg: SessionConfig{IdleTTL: time.Hour}})
	c.send(1, c.roundZero(1, tensor.Zeros(4)))
	<-entered
	c.send(2, c.roundZero(2, tensor.Zeros(4)))
	c.send(3, c.roundZero(3, tensor.Zeros(4)))
	c.edge.CloseSend()
	close(gate)
	for req := uint64(1); req <= 3; req++ {
		if m := c.recv(replyOK); m.Seq != req {
			t.Errorf("reply Seq %d, want %d", m.Seq, req)
		}
	}
	if _, err := c.edge.Recv(c.ctx); !errors.Is(err, stream.ErrEdgeClosed) {
		t.Errorf("after the last reply: %v, want the session's close", err)
	}
	if err := c.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestStagesSubmitCloseRace: the incoming edge closes while frames are
// queued in both rounds and a round is busy in its handler. The session
// must return only once every round goroutine is done: every frame is
// answered, and no handler runs after ServeSession returned. Run under
// -race.
func TestStagesSubmitCloseRace(t *testing.T) {
	// busy takes a signal per handler entry, without blocking: a full
	// buffer drops it, and the test only needs one after each drain.
	var running atomic.Int32
	busy := make(chan struct{}, 64)
	handler := func() {
		running.Add(1)
		defer running.Add(-1)
		select {
		case busy <- struct{}{}:
		default:
		}
		time.Sleep(time.Millisecond)
	}
	for iter := 0; iter < 5; iter++ {
		const n = 4
		c := open(t, opening{proto: true, hooks: map[int]func(){0: handler, 1: handler}, raw: true, depth: 4 * n,
			cfg: SessionConfig{Window: n, IdleTTL: time.Hour}})
		base := uint64(100*iter + 1)
		next := make([]*roundFrame, n)
		for i := range next {
			next[i] = c.midway(base+uint64(i), 0)
		}
		for len(busy) > 0 {
			<-busy
		}
		for i := range next {
			c.send(base+uint64(i), next[i])
			c.send(base+uint64(n+i), c.roundZero(base+uint64(n+i), tensor.Zeros(4)))
		}
		<-busy // a round is inside its handler
		c.edge.CloseSend()
		if err := c.wait(); err != nil {
			t.Fatalf("server: %v", err)
		}
		if r := running.Load(); r != 0 {
			t.Fatalf("ServeSession returned with %d handler(s) still running", r)
		}
		for range 2 * n {
			c.recv(replyOK)
		}
		if _, err := c.edge.Recv(c.ctx); !errors.Is(err, stream.ErrEdgeClosed) {
			t.Fatalf("after %d replies: %v, want the session's close", 2*n, err)
		}
	}
}

// TestStagesFailReleasesWindow: when the session's ctx ends while a round
// is stalled and its queue is full, the receive loop blocked on that queue
// is released and ServeSession returns the ctx error instead of waiting
// forever on a queue no one drains.
func TestStagesFailReleasesWindow(t *testing.T) {
	entered, cancelled := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	hold := func() {
		if calls.Add(1) == 1 {
			close(entered)
			<-cancelled
		}
	}
	c := open(t, opening{proto: true, hooks: map[int]func(){0: hold}, raw: true, cfg: SessionConfig{Window: 1, IdleTTL: time.Hour}})
	context.AfterFunc(c.ctx, func() { close(cancelled) })
	c.send(1, c.roundZero(1, tensor.Zeros(4)))
	<-entered
	// One frame fills the queue, the loop holds the next, the edge buffers
	// the last: the loop is blocked on the full queue.
	for req := uint64(2); req <= 4; req++ {
		c.send(req, c.roundZero(req, tensor.Zeros(4)))
	}
	c.cancel()
	if err := c.wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("session whose ctx ended under a full queue: %v, want context.Canceled", err)
	}
}

// TestSessionStageCancelReleasesTCPRecv: a session over TCP whose ctx is
// cancelled after the Hello, its receive loop waiting for a frame, returns
// the ctx error within a second although the client keeps the connection
// open.
func TestSessionStageCancelReleasesTCPRecv(t *testing.T) {
	h := open(t, opening{tcp: true, proto: true, raw: true})
	h.cancel()
	select {
	case <-h.done:
		if !errors.Is(h.err, context.Canceled) {
			t.Errorf("session cancelled while waiting for a frame: %v, want context.Canceled", h.err)
		}
	case <-time.After(time.Second):
		t.Fatal("a session over TCP did not return within 1s of its ctx's cancel")
	}
}

// TestContextCancellation: cancelling the session's ctx while a round is
// blocked in its handler and the receive loop waits on the incoming edge
// ends ServeSession with the ctx error once the round returns.
func TestContextCancellation(t *testing.T) {
	entered, cancelled := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	hold := func() {
		if calls.Add(1) == 1 {
			close(entered)
			<-cancelled
		}
	}
	c := open(t, opening{proto: true, hooks: map[int]func(){0: hold}, raw: true, depth: 4, cfg: SessionConfig{IdleTTL: time.Hour}})
	context.AfterFunc(c.ctx, func() { close(cancelled) })
	c.send(1, c.roundZero(1, tensor.Zeros(4)))
	<-entered
	c.cancel()
	if err := c.wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("session after cancellation: %v, want context.Canceled", err)
	}
}

// failingEdge is an outgoing edge whose Send fails once broken is set.
type failingEdge struct {
	stream.Edge
	broken atomic.Bool
}

var errReplyLost = errors.New("reply edge broken")

func (e *failingEdge) Send(ctx context.Context, m *stream.Message) error {
	if e.broken.Load() {
		return errReplyLost
	}
	return e.Edge.Send(ctx, m)
}

// TestSessionReplySendFailure: an outgoing edge whose Send fails during a
// round ends ServeSession with that error, although the incoming edge
// stays open — the receive loop waiting on it, over channel edges and over
// TCP, is released — and leaves none of the session's goroutines behind.
func TestSessionReplySendFailure(t *testing.T) {
	for _, transport := range []string{"channel", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			entered, gate := make(chan struct{}), make(chan struct{})
			var calls atomic.Int64
			hold := func() {
				if calls.Add(1) == 1 {
					close(entered)
					<-gate
				}
			}
			before := runtime.NumGoroutine()
			out := &failingEdge{}
			breakable := func(e stream.Edge) stream.Edge {
				out.Edge = e
				return out
			}
			c := open(t, opening{tcp: transport == "tcp", depth: 4, proto: true, hooks: map[int]func(){0: hold}, raw: true,
				cfg: SessionConfig{IdleTTL: time.Hour}, answers: breakable})
			c.send(1, c.roundZero(1, tensor.Zeros(4)))
			<-entered
			out.broken.Store(true)
			close(gate)
			if err := c.wait(); !errors.Is(err, errReplyLost) {
				t.Fatalf("session whose reply edge failed: %v, want %v", err, errReplyLost)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines grew from %d to %d after the session ended", before, runtime.NumGoroutine())
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestPanicContainment: a round whose kernel panics fails only the request
// that raised it; the round keeps serving the requests after it.
func TestPanicContainment(t *testing.T) {
	var calls atomic.Int64
	boom := func() {
		if calls.Add(1) == 3 {
			panic("boom on request 3")
		}
	}
	c := open(t, opening{proto: true, hooks: map[int]func(){0: boom}, depth: 2, cfg: SessionConfig{Window: 2}, opts: ClientOptions{Window: 2}}).client
	var failed, ok int
	for i := 0; i < 5; i++ {
		_, err := c.Infer(context.Background(), tensor.MustFromSlice([]float64{float64(i), 0, -1, 0.5}, 4))
		if err == nil {
			ok++
			continue
		}
		failed++
		if msg := err.Error(); !strings.Contains(msg, "panic") || !strings.Contains(msg, "boom") {
			t.Errorf("panic cause lost: %q", msg)
		}
	}
	if failed != 1 || ok != 4 {
		t.Errorf("failed=%d ok=%d, want 1/4: panic not contained to its request", failed, ok)
	}
}

// TestPipelineOrderAndValues: a round answers its frames in the order they
// arrived, and every request that passes both rounds gets the sequential
// workflow's result.
func TestPipelineOrderAndValues(t *testing.T) {
	const n = 6
	c := open(t, opening{proto: true, raw: true, depth: 2 * n, cfg: SessionConfig{Window: n}})
	inputs, want := make([]*tensor.Dense, n+1), make([]*tensor.Dense, n+1)
	for req := 1; req <= n; req++ {
		inputs[req] = tensor.MustFromSlice([]float64{float64(req), -0.5, 1, float64(-req) / 2}, 4)
		var err error
		if want[req], err = c.proto.Infer(uint64(1000+req), inputs[req]); err != nil {
			t.Fatal(err)
		}
	}
	for req := uint64(1); req <= n; req++ {
		c.send(req, c.roundZero(req, inputs[req]))
	}
	next := make([]*roundFrame, n+1)
	for req := uint64(1); req <= n; req++ {
		m := c.recv(replyOK)
		if m.Seq != req {
			t.Fatalf("round 0 answered request %d as the %dth", m.Seq, req)
		}
		next[req] = c.roundOne(req, m)
	}
	for req := uint64(n); req >= 1; req-- {
		c.send(req, next[req])
	}
	for req := uint64(n); req >= 1; req-- {
		m := c.recv(replyOK)
		if m.Seq != req {
			t.Fatalf("round 1 answered request %d where request %d was sent", m.Seq, req)
		}
		if got := c.result(req, m); !tensor.AllClose(want[req], got, 0) {
			t.Errorf("request %d: %v, want %v", req, got.Data(), want[req].Data())
		}
	}
	c.edge.CloseSend()
	if err := c.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestRoundFailurePropagatesAndContains: over TCP, a failed round's reply
// arrives under the request's Seq carrying the cause's text, and the
// session keeps serving the requests after it.
func TestRoundFailurePropagatesAndContains(t *testing.T) {
	c := open(t, opening{tcp: true, raw: true})
	c.send(1, c.roundZero(1, tensor.Zeros(9))) // wrong input size
	if m := c.recv(CodeNone); m.Seq != 1 || m.Payload != nil || !strings.Contains(m.Err.Error(), "input size 9") {
		t.Errorf("failed round's reply over TCP: Seq %d payload %T err %v, want Seq 1 carrying its cause alone", m.Seq, m.Payload, m.Err)
	}
	c.complete(2)
	c.edge.CloseSend()
	if err := c.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestPipelineSnapshotAndInstrument: each round observes every frame's
// queue wait into round.<r>.wait and its time into round.<r>.linear, which
// has a live view.
func TestPipelineSnapshotAndInstrument(t *testing.T) {
	reg := obs.NewRegistry("round-instrument")
	reg.KeepWindows()
	c := open(t, opening{proto: true, depth: 2, cfg: SessionConfig{Registry: reg, Window: 2}, opts: ClientOptions{Window: 2}}).client
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := c.Infer(context.Background(), tensor.MustFromSlice([]float64{1, float64(i), -1, 0}, 4)); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	for _, name := range []string{"round.0.wait", "round.0.linear", "round.1.wait", "round.1.linear"} {
		if h, ok := snap.Histograms[name]; !ok || h.Count != n {
			t.Errorf("histogram %s count %d (ok=%v), want %d", name, h.Count, ok, n)
		}
	}
	if _, ok := reg.LiveSnapshot().Histograms["round.0.linear"]; !ok {
		t.Error("round.0.linear has no live view")
	}
}

// TestPipelineIsActuallyPipelined: with both rounds taking d per frame, n
// concurrent requests finish in about (n+1)·d, not the 2·n·d of running
// them one after another.
func TestPipelineIsActuallyPipelined(t *testing.T) {
	const d, n = 40 * time.Millisecond, 8
	sleep := func() { time.Sleep(d) }
	c := open(t, opening{proto: true, hooks: map[int]func(){0: sleep, 1: sleep}, depth: n,
		cfg: SessionConfig{Window: n}, opts: ClientOptions{Window: n}}).client
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Infer(context.Background(), tensor.MustFromSlice([]float64{float64(i), 1, 0, -1}, 4)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if elapsed, serial := time.Since(start), 2*n*d; elapsed > serial*3/4 {
		t.Errorf("%d requests took %v, serial would be %v: the rounds did not overlap", n, elapsed, serial)
	}
}

// TestSubmitConcurrentSeq: frames sent by parallel senders are each
// answered under their own Seq: every request then completes with its own
// input's result.
func TestSubmitConcurrentSeq(t *testing.T) {
	const senders, per = 4, 4
	c := open(t, opening{proto: true, raw: true, depth: senders * per, cfg: SessionConfig{Window: senders * per}})
	inputs, want := map[uint64]*tensor.Dense{}, map[uint64]*tensor.Dense{}
	for req := uint64(1); req <= senders*per; req++ {
		inputs[req] = tensor.MustFromSlice([]float64{float64(req) / 4, 1, -0.5, 0}, 4)
		var err error
		if want[req], err = c.proto.Infer(1000+req, inputs[req]); err != nil {
			t.Fatal(err)
		}
	}
	frames := map[uint64]*roundFrame{}
	for req, x := range inputs {
		frames[req] = c.roundZero(req, x)
	}
	var wg sync.WaitGroup
	for w := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				req := uint64(w*per + i)
				if err := c.edge.Send(c.ctx, &stream.Message{Seq: req, Payload: frames[req]}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	next := map[uint64]*roundFrame{}
	for range inputs {
		m := c.recv(replyOK)
		if next[m.Seq] != nil {
			t.Fatalf("request %d answered twice", m.Seq)
		}
		next[m.Seq] = c.roundOne(m.Seq, m)
	}
	for req, f := range next {
		c.send(req, f)
		m := c.recv(replyOK)
		if got := c.result(m.Seq, m); m.Seq != req || !tensor.AllClose(want[req], got, 0) {
			t.Errorf("request %d answered as %d with %v, want %v", req, m.Seq, got.Data(), want[req].Data())
		}
	}
	c.edge.CloseSend()
	if err := c.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
}
