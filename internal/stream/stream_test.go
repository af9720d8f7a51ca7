package stream

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"ppstream/internal/obs"
)

func addStage(name string, delta int) Stage {
	return Stage{Name: name, Fn: func(_ context.Context, m *Message) (*Message, error) {
		return &Message{Payload: m.Payload.(int) + delta}, nil
	}}
}

// chain runs the stages one after another, each on its own goroutine and
// joined by channel edges, until the test ends: the edge into the first
// stage and the edge out of the last.
func chain(t *testing.T, stages ...Stage) (in, out Edge) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	in = NewChannelEdge(4)
	edge := in
	for i := range stages {
		next := NewChannelEdge(4)
		go stages[i].Run(ctx, edge, next)
		edge = next
	}
	return in, edge
}

// submitAll sends the payloads in order under Seq = their position, then
// reads as many messages off out: the messages they left with, by Seq.
func submitAll(t *testing.T, in, out Edge, payloads ...int) []*Message {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() {
		for i, v := range payloads {
			if err := in.Send(ctx, &Message{Seq: uint64(i), Payload: v}); err != nil {
				return
			}
		}
	}()
	got := make([]*Message, len(payloads))
	for range payloads {
		m, err := out.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got[m.Seq] = m
	}
	return got
}

// TestPipelineOrderAndValues: every request passes every stage of a chain,
// and requests leave it in the order they entered it.
func TestPipelineOrderAndValues(t *testing.T) {
	in, out := chain(t, addStage("plus1", 1), addStage("plus10", 10))
	ctx := context.Background()
	const n = 20
	go func() {
		for i := 0; i < n; i++ {
			in.Send(ctx, &Message{Seq: uint64(i), Payload: i})
		}
	}()
	for i := 0; i < n; i++ {
		m, err := out.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq != uint64(i) {
			t.Fatalf("request %d left the chain as the %dth — order broken", m.Seq, i)
		}
		if got := m.Payload.(int); got != i+11 {
			t.Fatalf("payload %d, want %d", got, i+11)
		}
	}
}

func TestPipelineIsActuallyPipelined(t *testing.T) {
	// Two stages each sleeping d: n items through the chain should take
	// ≈ (n+1)·d, not 2·n·d.
	const d = 20 * time.Millisecond
	sleepy := func(name string) Stage {
		return Stage{Name: name, Fn: func(_ context.Context, m *Message) (*Message, error) {
			time.Sleep(d)
			return m, nil
		}}
	}
	in, out := chain(t, sleepy("a"), sleepy("b"))
	const n = 6
	start := time.Now()
	submitAll(t, in, out, make([]int, n)...)
	elapsed := time.Since(start)
	serial := 2 * n * d
	if elapsed > serial*3/4 {
		t.Errorf("chain took %v, serial would be %v — no overlap achieved", elapsed, serial)
	}
}

// TestStageErrorPropagatesAndContains: a handler error leaves the stage as
// its message's *StageError, naming the stage and keeping the cause, and
// the stage keeps serving the messages after it.
func TestStageErrorPropagatesAndContains(t *testing.T) {
	reg := obs.NewRegistry("errors")
	boom := Stage{Name: "boom", Fn: func(_ context.Context, m *Message) (*Message, error) {
		if m.Payload.(int) == 1 {
			return nil, fmt.Errorf("injected failure")
		}
		return m, nil
	}, Busy: reg.Histogram("boom.busy")}
	in, out := chain(t, boom)
	var errCount, okCount int
	for _, m := range submitAll(t, in, out, 0, 1, 2) {
		var stageErr *StageError
		switch {
		case m.Err == nil:
			okCount++
		case !errors.As(m.Err, &stageErr) || stageErr.Stage != "boom" || !strings.Contains(m.Err.Error(), "injected failure"):
			t.Errorf("error %v lost its stage or cause", m.Err)
		default:
			errCount++
		}
	}
	if errCount != 1 || okCount != 2 {
		t.Errorf("errCount=%d okCount=%d, want 1/2 — failure not contained", errCount, okCount)
	}
	if got := reg.Snapshot().Histograms["boom.busy"].Count; got != 3 {
		t.Errorf("boom.busy counted %d messages, want 3", got)
	}
}

// TestContextCancellation: cancelling a stage's ctx stops it while blocked
// in its handler, and Run reports why it stopped.
func TestContextCancellation(t *testing.T) {
	entered := make(chan struct{})
	block := Stage{Name: "block", Fn: func(ctx context.Context, m *Message) (*Message, error) {
		close(entered)
		<-ctx.Done()
		return m, nil
	}}
	ctx, cancel := context.WithCancel(context.Background())
	in, out := NewChannelEdge(1), NewChannelEdge(1)
	done := make(chan error, 1)
	go func() { done <- block.Run(ctx, in, out) }()
	if err := in.Send(ctx, &Message{Seq: 1, Payload: 1}); err != nil {
		t.Fatal(err)
	}
	<-entered
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run after cancellation: %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stage did not stop on cancellation")
	}
}

// wirePayload is the tests' TCP payload: an integer and a note of up to
// 8 MB (TestTCPEdgeDoesNotPinLargestFrame sends a 4 MB one).
type wirePayload struct {
	Value int
	Note  string
}

const wirePayloadTag = 0xFF01

func (p *wirePayload) WireTag() uint16 { return wirePayloadTag }

func (p *wirePayload) EncodeWire(w *WireWriter) {
	w.I64(int64(p.Value))
	w.Bytes([]byte(p.Note))
}

func registerWirePayload() {
	RegisterWireType(wirePayloadTag, func(r *WireReader) any {
		return &wirePayload{Value: int(r.I64()), Note: string(r.Bytes("note", 8<<20))}
	})
}

// tcpPair returns the two ends of a loopback TCP connection as edges,
// closed when the test ends.
func tcpPair(t *testing.T) (dialed, accepted Edge) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return NewTCPEdge(client), NewTCPEdge(server)
}

func TestTCPEdgeRoundTrip(t *testing.T) {
	registerWirePayload()
	sendEdge, recvEdge := tcpPair(t)
	ctx := context.Background()
	go func() {
		for i := 0; i < 3; i++ {
			sendEdge.Send(ctx, &Message{Seq: uint64(i), Payload: &wirePayload{Value: i * 7, Note: "hi"}})
		}
		sendEdge.CloseSend()
	}()
	for i := 0; i < 3; i++ {
		m, err := recvEdge.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		pl, ok := m.Payload.(*wirePayload)
		if !ok {
			t.Fatalf("payload type %T", m.Payload)
		}
		if pl.Value != i*7 || m.Seq != uint64(i) {
			t.Errorf("frame %d corrupted: %+v", i, pl)
		}
	}
	if _, err := recvEdge.Recv(ctx); !errors.Is(err, ErrEdgeClosed) {
		t.Errorf("expected close frame, got %v", err)
	}
}

func TestTCPEdgeErrorMessage(t *testing.T) {
	registerWirePayload()
	sendEdge, recvEdge := tcpPair(t)
	ctx := context.Background()
	go sendEdge.Send(ctx, &Message{Seq: 9, Err: errors.New("remote failure")})
	m, err := recvEdge.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var stageErr *StageError
	if m.Err == nil || m.Err.Error() != "remote failure" || errors.As(m.Err, &stageErr) || m.Seq != 9 {
		t.Errorf("error frame corrupted: %+v", m)
	}
}
