package stream

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ppstream/internal/obs"
)

func addStage(name string, delta int) Stage {
	return Stage{Name: name, Fn: func(_ context.Context, m *Message) (*Message, error) {
		return &Message{Payload: m.Payload.(int) + delta}, nil
	}}
}

// newTestPipeline starts an unbounded pipeline over stages that is closed
// when the test ends.
func newTestPipeline(t *testing.T, reg *obs.Registry, stages ...Stage) *Pipeline {
	t.Helper()
	p, err := NewPipeline(context.Background(), 0, reg, stages...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// submitAll submits the payloads in order, then waits for each: the
// messages they left the pipeline with, by payload position.
func submitAll(t *testing.T, p *Pipeline, payloads ...int) []*Message {
	t.Helper()
	ctx := context.Background()
	fs := make([]*Future, len(payloads))
	for i, v := range payloads {
		f, err := p.Submit(ctx, p.Reserve(), v, nil)
		if err != nil {
			t.Fatal(err)
		}
		fs[i] = f
	}
	out := make([]*Message, len(fs))
	for i, f := range fs {
		m, err := f.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

// TestPipelineOrderAndValues: every request passes every stage, and
// requests leave the pipeline in the order they entered it.
func TestPipelineOrderAndValues(t *testing.T) {
	p := newTestPipeline(t, nil, addStage("plus1", 1), addStage("plus10", 10))
	ctx := context.Background()
	const n = 20
	var left []uint64 // appended by the reader goroutine alone
	fs := make([]*Future, n)
	for i := range fs {
		f, err := p.Submit(ctx, p.Reserve(), i, func(m *Message) { left = append(left, m.Seq) })
		if err != nil {
			t.Fatal(err)
		}
		fs[i] = f
	}
	for i, f := range fs {
		m, err := f.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Payload.(int); got != i+11 {
			t.Fatalf("payload %d, want %d", got, i+11)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for i, seq := range left {
		if seq != uint64(i) {
			t.Fatalf("request %d left the pipeline as the %dth — order broken", seq, i)
		}
	}
}

func TestPipelineIsActuallyPipelined(t *testing.T) {
	// Two stages each sleeping d: n items through a pipeline should take
	// ≈ (n+1)·d, not 2·n·d.
	const d = 20 * time.Millisecond
	sleepy := func(name string) Stage {
		return Stage{Name: name, Fn: func(_ context.Context, m *Message) (*Message, error) {
			time.Sleep(d)
			return m, nil
		}}
	}
	p := newTestPipeline(t, nil, sleepy("a"), sleepy("b"))
	const n = 6
	start := time.Now()
	submitAll(t, p, make([]int, n)...)
	elapsed := time.Since(start)
	serial := 2 * n * d
	if elapsed > serial*3/4 {
		t.Errorf("pipeline took %v, serial would be %v — no overlap achieved", elapsed, serial)
	}
}

func TestStageErrorPropagatesAndContains(t *testing.T) {
	boom := Stage{Name: "boom", Fn: func(_ context.Context, m *Message) (*Message, error) {
		if m.Payload.(int) == 1 {
			return nil, fmt.Errorf("injected failure")
		}
		return m, nil
	}}
	seen := atomic.Int64{}
	after := Stage{Name: "after", Fn: func(_ context.Context, m *Message) (*Message, error) {
		seen.Add(1)
		return m, nil
	}}
	reg := obs.NewRegistry("errors")
	p := newTestPipeline(t, reg, boom, after)
	var errCount, okCount int
	for _, m := range submitAll(t, p, 0, 1, 2) {
		if m.Err != nil {
			errCount++
			if !strings.Contains(m.Err.Error(), "injected failure") {
				t.Errorf("error message %q lost cause", m.Err)
			}
		} else {
			okCount++
		}
	}
	if errCount != 1 || okCount != 2 || seen.Load() != 2 {
		t.Errorf("errCount=%d okCount=%d after=%d, want 1/2/2 — failure not contained", errCount, okCount, seen.Load())
	}
	if got := reg.Snapshot().Gauges["stage.boom.errors"]; got != 1 {
		t.Errorf("stage.boom.errors = %d, want 1", got)
	}
}

// TestContextCancellation: cancelling the pipeline's ctx stops a stage
// blocked in its handler, and Close reports why the pipeline stopped.
func TestContextCancellation(t *testing.T) {
	block := Stage{Name: "block", Fn: func(ctx context.Context, m *Message) (*Message, error) {
		<-ctx.Done()
		return m, nil
	}}
	ctx, cancel := context.WithCancel(context.Background())
	p, err := NewPipeline(ctx, 0, nil, block)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(ctx, p.Reserve(), 1, nil); err != nil {
		t.Fatal(err)
	}
	cancel()
	done := make(chan error, 1)
	go func() { done <- p.Close() }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Close after cancellation: %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pipeline did not shut down on cancellation")
	}
}

func TestNewPipelineValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := NewPipeline(ctx, 0, nil); err == nil {
		t.Error("empty pipeline accepted")
	}
	if _, err := NewPipeline(ctx, 0, nil, addStage("a", 0), Stage{Name: "s"}); err == nil {
		t.Error("stage without a handler accepted")
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
