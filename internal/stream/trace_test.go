package stream

import (
	"context"
	"net"
	"testing"
	"time"

	"ppstream/internal/obs"
)

// TestInstrumentedTCPEdge checks wire byte/frame counters and that the
// message survives the TCP hop.
func TestInstrumentedTCPEdge(t *testing.T) {
	registerWirePayload()
	reg := obs.NewRegistry("wire")
	a, b := net.Pipe()
	sender := NewInstrumentedTCPEdge(a, reg, "tcp")
	receiver := NewInstrumentedTCPEdge(b, reg, "tcp")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	sent := &Message{
		Seq:     7,
		Payload: &wirePayload{Value: 3, Note: "traced"},
	}
	errCh := make(chan error, 1)
	go func() { errCh <- sender.Send(ctx, sent) }()
	got, err := receiver.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.Payload.(*wirePayload).Note != "traced" {
		t.Fatalf("round trip mangled message: %+v", got)
	}
	s := reg.Snapshot()
	if s.Counters["tcp.frames_sent"] != 1 || s.Counters["tcp.frames_recv"] != 1 {
		t.Errorf("frame counters %v, want 1/1", s.Counters)
	}
	if s.Counters["tcp.bytes_sent"] == 0 || s.Counters["tcp.bytes_recv"] == 0 {
		t.Errorf("byte counters not recorded: %v", s.Counters)
	}
}
