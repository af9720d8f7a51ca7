package stream

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
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
	registerWirePayload()
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
// one, the connection keeps nothing frame-sized — a frame streams through
// the edge's two fixed MaxWireElement-byte buffers and what it carried
// belongs to the message alone. The test runs on one processor with the
// collector held off while the frames go out, the conditions under which
// a buffer recycled through a pool would be found again.
func TestTCPEdgeDoesNotPinLargestFrame(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	registerWirePayload()
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
	exchange("warm-up: the edge's buffers and the preface")
	before := liveHeap()

	const frame = 4 << 20
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	exchange(strings.Repeat("x", frame))
	exchange("small")
	grew := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(send) // the connection is still up when the heap is read
	runtime.KeepAlive(recv)
	if grew > frame/8 {
		t.Errorf("live heap grew by %d bytes after a %d-byte frame: something frame-sized survives it", grew, frame)
	}
}

// memConn is the net.Conn a TCP edge needs, over memory: reads come from a
// byte slice, writes collect in a buffer.
type memConn struct {
	net.Conn
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *memConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// TestTCPEdgeRefusesForeignPreface: anything but this version's preface —
// another version, a gob stream's first bytes — is ErrWireVersion, and
// stays the edge's answer.
func TestTCPEdgeRefusesForeignPreface(t *testing.T) {
	for name, opening := range map[string][]byte{
		"next version": {'P', 'P', 'S', 'W', 0, WireVersion + 1, 0, 0},
		"gob":          {0x37, 0xff, 0x81, 0x03, 0x01, 0x01, 0x09, 'w', 'i', 'r', 'e'},
	} {
		e := NewTCPEdge(&memConn{in: bytes.NewReader(opening)})
		for i := 0; i < 2; i++ {
			if _, err := e.Recv(context.Background()); !errors.Is(err, ErrWireVersion) {
				t.Errorf("%s, Recv %d: %v, want ErrWireVersion", name, i, err)
			}
		}
	}
}

// TestTCPEdgeConcurrentSendersDoNotInterleave: frames from concurrent
// senders, each several buffers long, arrive whole.
func TestTCPEdgeConcurrentSendersDoNotInterleave(t *testing.T) {
	registerWirePayload()
	send, recv := tcpEdgePair(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const senders, each = 4, 8
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			note := strings.Repeat(string(rune('a'+s)), 5*MaxWireElement+s)
			for i := 0; i < each; i++ {
				if err := send.Send(ctx, &Message{Seq: uint64(s), Payload: &wirePayload{Value: s, Note: note}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < senders*each; i++ {
		m, err := recv.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		p := m.Payload.(*wirePayload)
		if want := strings.Repeat(string(rune('a'+p.Value)), 5*MaxWireElement+p.Value); m.Seq != uint64(p.Value) || p.Note != want {
			t.Fatalf("frame %d of sender %d arrived mangled", i, p.Value)
		}
	}
	wg.Wait()
}

// FuzzFrameHeader feeds adversarial bytes to the frame decoder behind an
// honest preface: header, optional sections, payload. It must not panic,
// and must not allocate more than a few times the bytes it was given plus
// its fixed buffer — a header may announce a 64 MB body and a payload a
// note of 8 MB, and neither announcement is worth an allocation.
func FuzzFrameHeader(f *testing.F) {
	registerWirePayload()
	seed := func(closed bool, msgs ...*Message) {
		conn := &memConn{}
		e := NewTCPEdge(conn)
		for _, m := range msgs {
			if err := e.Send(context.Background(), m); err != nil {
				f.Fatal(err)
			}
		}
		if closed {
			if err := e.CloseSend(); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(conn.out.Bytes()[prefaceLen:])
	}
	seed(true, &Message{Seq: 1, Payload: &wirePayload{Value: 7, Note: "ok"}, Trace: &Trace{ID: "feedc0de00000001", Spans: []Span{{Stage: "s", Wait: 1, Busy: 2}}}})
	seed(false, &Message{Seq: 2, Err: "stage linear-0: boom", ErrCode: 3, FailedStage: "linear-0", FailedPayload: &wirePayload{Value: 9, Note: "poison"}})
	seed(true)
	f.Add(binary.BigEndian.AppendUint32(make([]byte, 16), MaxFrameBody))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := &WireReader{br: bufio.NewReaderSize(bytes.NewReader(data), MaxWireElement)}
		for {
			if _, err := readFrame(r); err != nil {
				break
			}
		}
		runtime.ReadMemStats(&after)
		if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)+96<<10); got > ceiling {
			t.Fatalf("decoding %d bytes allocated %d (ceiling %d)", len(data), got, ceiling)
		}
	})
}
