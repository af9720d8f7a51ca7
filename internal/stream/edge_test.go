package stream

import (
	"context"
	"errors"
	"net"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"ppstream/internal/obs"
)

func TestChannelEdgeBackpressure(t *testing.T) {
	e := NewChannelEdge(1)
	ctx := context.Background()
	if err := e.Send(ctx, &Message{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// Second send must block until a Recv frees the slot; use a short
	// deadline to verify the blocking behaviour.
	dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := e.Send(dctx, &Message{Seq: 2}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expected deadline on full edge, got %v", err)
	}
	if m, err := e.Recv(ctx); err != nil || m.Seq != 1 {
		t.Fatalf("recv %v %v", m, err)
	}
	if err := e.Send(ctx, &Message{Seq: 3}); err != nil {
		t.Errorf("send after drain failed: %v", err)
	}
}

func TestChannelEdgeCloseIdempotent(t *testing.T) {
	e := NewChannelEdge(1)
	if err := e.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if err := e.CloseSend(); err != nil {
		t.Fatal("second close failed")
	}
	if _, err := e.Recv(context.Background()); !errors.Is(err, ErrEdgeClosed) {
		t.Errorf("recv on closed edge: %v", err)
	}
}

func TestRecvCancelled(t *testing.T) {
	e := NewChannelEdge(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Recv(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("recv on cancelled ctx: %v", err)
	}
	if err := e.Send(ctx, &Message{}); err == nil {
		// buffered send may succeed with capacity; only the blocked
		// path must observe cancellation, so a nil error is acceptable
		// here when the buffer has room.
		_ = err
	}
}

// tcpEdgePair builds an instrumented sender and receiver over one real
// TCP connection, both publishing to reg under distinct prefixes.
func tcpEdgePair(t *testing.T, reg *obs.Registry) (send, recv Edge) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, aerr := l.Accept()
		l.Close()
		if aerr != nil {
			close(accepted)
			return
		}
		accepted <- conn
	}()
	dialConn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srvConn, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { dialConn.Close(); srvConn.Close() })
	return NewInstrumentedTCPEdge(dialConn, reg, "client"),
		NewInstrumentedTCPEdge(srvConn, reg, "server")
}

// TestTCPEdgeCountersAndFailureMetadata drives a real TCP edge and
// checks (a) byte/frame counters on both ends, and (b) that a failed
// message's FailedStage/FailedPayload and trace ID survive the hop —
// the submitter on the far side needs them to diagnose remote errors.
func TestTCPEdgeCountersAndFailureMetadata(t *testing.T) {
	RegisterWireType(&wirePayload{})
	reg := obs.NewRegistry("edge")
	send, recv := tcpEdgePair(t, reg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	msgs := []*Message{
		{Seq: 1, Payload: &wirePayload{Value: 7, Note: "ok"}, Trace: &Trace{ID: "feedc0de00000001"}},
		{
			Seq:           2,
			Err:           "stage linear-0: boom",
			FailedStage:   "linear-0",
			FailedPayload: &wirePayload{Value: 9, Note: "poison"},
			Trace:         &Trace{ID: "feedc0de00000002"},
		},
	}
	go func() {
		for _, m := range msgs {
			send.Send(ctx, m)
		}
		send.CloseSend()
	}()

	got1, err := recv.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got1.Seq != 1 || got1.Trace == nil || got1.Trace.ID != "feedc0de00000001" {
		t.Errorf("healthy frame lost its trace ID: %+v", got1)
	}
	got2, err := recv.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Err != "stage linear-0: boom" {
		t.Errorf("err %q", got2.Err)
	}
	if got2.FailedStage != "linear-0" {
		t.Errorf("FailedStage %q did not survive the TCP hop", got2.FailedStage)
	}
	fp, ok := got2.FailedPayload.(*wirePayload)
	if !ok || fp.Value != 9 || fp.Note != "poison" {
		t.Errorf("FailedPayload did not survive the TCP hop: %#v", got2.FailedPayload)
	}
	if got2.Trace == nil || got2.Trace.ID != "feedc0de00000002" {
		t.Errorf("failed frame lost its trace ID: %+v", got2.Trace)
	}
	if _, err := recv.Recv(ctx); !errors.Is(err, ErrEdgeClosed) {
		t.Fatalf("after close: %v", err)
	}

	s := reg.Snapshot()
	if got := s.Counters["client.frames_sent"]; got != uint64(len(msgs)) {
		t.Errorf("client.frames_sent %d, want %d", got, len(msgs))
	}
	if got := s.Counters["server.frames_recv"]; got != uint64(len(msgs)) {
		t.Errorf("server.frames_recv %d, want %d", got, len(msgs))
	}
	if s.Counters["client.bytes_sent"] == 0 {
		t.Error("client.bytes_sent is zero")
	}
	// The close frame is bytes but not a message frame.
	if s.Counters["server.bytes_recv"] < s.Counters["client.bytes_sent"]/2 {
		t.Errorf("server.bytes_recv %d implausibly low vs client.bytes_sent %d",
			s.Counters["server.bytes_recv"], s.Counters["client.bytes_sent"])
	}
	if s.Counters["server.frames_sent"] != 0 || s.Counters["client.frames_recv"] != 0 {
		t.Error("reverse-direction frame counters moved on a one-way edge")
	}
}

func TestAssembleValidation(t *testing.T) {
	if _, err := Assemble(nil, NewChannelEdge(1), NewChannelEdge(1)); err == nil {
		t.Error("empty stage list accepted")
	}
	h := HandlerFunc{StageName: "s", Fn: func(_ context.Context, m *Message) (*Message, error) { return m, nil }}
	st, err := NewStage("s", h, NewChannelEdge(1), NewChannelEdge(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble([]*Stage{st}, nil, NewChannelEdge(1)); err == nil {
		t.Error("nil boundary edge accepted")
	}
	if st.Name() != "s" {
		t.Errorf("stage name %q", st.Name())
	}
}

// TestTCPEdgeDoesNotPinLargestFrame: after a large frame and then a small
// one, the connection may keep ONE frame-sized buffer (the Encoder's own)
// but not a second — the pooled buffer gob encoded the large payload into,
// which a recycled encoderState would otherwise keep reachable for the
// life of the connection once the small frame has borrowed it too. The
// test runs on one processor with the collector held off while the frames
// go out — a peer that produces little garbage between the frames of a
// request — because that is when the small frame is sure to find the large
// one's buffer still in the pool.
func TestTCPEdgeDoesNotPinLargestFrame(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	RegisterWireType(&wirePayload{})
	send, recv := tcpEdgePair(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	exchange := func(note string) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- send.Send(ctx, &Message{Seq: 1, Payload: &wirePayload{Note: note}}) }()
		if _, err := recv.Recv(ctx); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	liveHeap := func() uint64 {
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	exchange("warm-up: type descriptors, decoder engines")
	before := liveHeap()

	const frame = 4 << 20
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	exchange(strings.Repeat("x", frame))
	exchange("small")
	grew := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(send) // the connection is still up when the heap is read
	runtime.KeepAlive(recv)
	if grew > frame*3/2 {
		t.Errorf("live heap grew by %d bytes after a %d-byte frame: more than one frame-sized buffer survives", grew, frame)
	}
}
