package stream

import (
	"context"
	"errors"
	"net"
	"testing"
)

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
	if m.Err == nil || m.Err.Error() != "remote failure" || m.Seq != 9 {
		t.Errorf("error frame corrupted: %+v", m)
	}
}
