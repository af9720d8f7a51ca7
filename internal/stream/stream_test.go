package stream

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func addHandler(name string, delta int) Handler {
	return HandlerFunc{StageName: name, Fn: func(_ context.Context, m *Message) (*Message, error) {
		return &Message{Payload: m.Payload.(int) + delta}, nil
	}}
}

func TestPipelineOrderAndValues(t *testing.T) {
	p, err := NewPipeline(4, addHandler("plus1", 1), addHandler("plus10", 10))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	const n = 20
	go func() {
		for i := 0; i < n; i++ {
			if _, err := p.Submit(ctx, i); err != nil {
				t.Error(err)
			}
		}
		p.Close()
	}()
	for i := 0; i < n; i++ {
		m, err := p.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq != uint64(i) {
			t.Fatalf("message %d arrived with seq %d — order broken", i, m.Seq)
		}
		if got := m.Payload.(int); got != i+11 {
			t.Fatalf("payload %d, want %d", got, i+11)
		}
	}
	if _, err := p.Recv(ctx); !errors.Is(err, ErrEdgeClosed) {
		t.Errorf("expected closed edge, got %v", err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineIsActuallyPipelined(t *testing.T) {
	// Two stages each sleeping d: n items through a pipeline should take
	// ≈ (n+1)·d, not 2·n·d.
	const d = 20 * time.Millisecond
	sleepy := func(name string) Handler {
		return HandlerFunc{StageName: name, Fn: func(_ context.Context, m *Message) (*Message, error) {
			time.Sleep(d)
			return m, nil
		}}
	}
	p, _ := NewPipeline(4, sleepy("a"), sleepy("b"))
	ctx := context.Background()
	p.Start(ctx)
	const n = 6
	start := time.Now()
	go func() {
		for i := 0; i < n; i++ {
			p.Submit(ctx, i)
		}
		p.Close()
	}()
	for i := 0; i < n; i++ {
		if _, err := p.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	serial := 2 * n * d
	if elapsed > serial*3/4 {
		t.Errorf("pipeline took %v, serial would be %v — no overlap achieved", elapsed, serial)
	}
}

func TestStageErrorPropagatesAndContains(t *testing.T) {
	boom := HandlerFunc{StageName: "boom", Fn: func(_ context.Context, m *Message) (*Message, error) {
		if m.Payload.(int) == 1 {
			return nil, fmt.Errorf("injected failure")
		}
		return m, nil
	}}
	seen := atomic.Int64{}
	after := HandlerFunc{StageName: "after", Fn: func(_ context.Context, m *Message) (*Message, error) {
		seen.Add(1)
		return m, nil
	}}
	p, _ := NewPipeline(2, boom, after)
	ctx := context.Background()
	p.Start(ctx)
	go func() {
		for i := 0; i < 3; i++ {
			p.Submit(ctx, i)
		}
		p.Close()
	}()
	var errCount, okCount int
	for i := 0; i < 3; i++ {
		m, err := p.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.Err != nil {
			errCount++
			if !strings.Contains(m.Err.Error(), "injected failure") {
				t.Errorf("error message %q lost cause", m.Err)
			}
		} else {
			okCount++
		}
	}
	if errCount != 1 || okCount != 2 {
		t.Errorf("errCount=%d okCount=%d, want 1/2 — failure not contained", errCount, okCount)
	}
	if p.Stages()[0].Metrics().Snapshot().Errors != 1 {
		t.Error("error metric not recorded")
	}
}

func TestContextCancellation(t *testing.T) {
	block := HandlerFunc{StageName: "block", Fn: func(ctx context.Context, m *Message) (*Message, error) {
		<-ctx.Done()
		return m, nil
	}}
	p, _ := NewPipeline(1, block)
	ctx, cancel := context.WithCancel(context.Background())
	p.Start(ctx)
	p.Submit(ctx, 1)
	cancel()
	done := make(chan struct{})
	go func() { p.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("pipeline did not shut down on cancellation")
	}
}

func TestMetrics(t *testing.T) {
	p, _ := NewPipeline(2, addHandler("a", 1))
	ctx := context.Background()
	p.Start(ctx)
	go func() {
		for i := 0; i < 5; i++ {
			p.Submit(ctx, i)
		}
		p.Close()
	}()
	for i := 0; i < 5; i++ {
		p.Recv(ctx)
	}
	snap := p.Stages()[0].Metrics().Snapshot()
	if snap.Processed != 5 {
		t.Errorf("processed %d, want 5", snap.Processed)
	}
	if snap.Errors != 0 {
		t.Errorf("errors %d", snap.Errors)
	}
}

func TestNewPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(1); err == nil {
		t.Error("empty pipeline accepted")
	}
	if _, err := NewStage("s", nil, NewChannelEdge(1), NewChannelEdge(1)); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := NewStage("s", addHandler("a", 0), nil, NewChannelEdge(1)); err == nil {
		t.Error("nil edge accepted")
	}
	p, _ := NewPipeline(1, addHandler("a", 0))
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(context.Background()); err == nil {
		t.Error("double start accepted")
	}
	p.Close()
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

func TestTCPEdgeRoundTrip(t *testing.T) {
	registerWirePayload()
	recvEdge, addr, err := ListenEdge("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sendEdge, err := DialEdge(addr)
	if err != nil {
		t.Fatal(err)
	}
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
	recvEdge, addr, err := ListenEdge("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sendEdge, err := DialEdge(addr)
	if err != nil {
		t.Fatal(err)
	}
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

func TestDialEdgeFailure(t *testing.T) {
	if _, err := DialEdge("127.0.0.1:1"); err == nil {
		t.Error("dialing a dead port succeeded")
	}
}
