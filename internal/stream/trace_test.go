package stream

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"ppstream/internal/obs"
)

// TestPipelineSnapshotAndInstrument: a stage observes every message's
// queue wait and handler time into the histograms it was given, the busy
// one with its live view.
func TestPipelineSnapshotAndInstrument(t *testing.T) {
	reg := obs.NewRegistry("stages")
	reg.KeepWindows()
	a, b := addStage("a", 1), addStage("b", 1)
	a.Wait, a.Busy = reg.Histogram("a.wait"), reg.LiveHistogram("a.busy")
	b.Wait, b.Busy = reg.Histogram("b.wait"), reg.LiveHistogram("b.busy")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out := NewChannelEdge(8)
	s := StartStages(ctx, 2, out, a, b)
	const n = 6
	for i := 0; i < n; i++ {
		if err := s.Send(ctx, i%2, &Message{Seq: uint64(i), Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rs := reg.Snapshot()
	for _, name := range []string{"a.wait", "a.busy", "b.wait", "b.busy"} {
		if h, ok := rs.Histograms[name]; !ok || h.Count != n/2 {
			t.Errorf("histogram %s count %d (ok=%v), want %d", name, h.Count, ok, n/2)
		}
	}
	if _, ok := reg.LiveSnapshot().Histograms["a.busy"]; !ok {
		t.Error("a.busy has no live view")
	}
}

// TestSubmitConcurrentSeq: with parallel senders, every handler result
// leaves its stage under its input's Seq, though the handler builds a
// fresh message (run with -race).
func TestSubmitConcurrentSeq(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const workers, per = 4, 16
	out := NewChannelEdge(workers * per)
	s := StartStages(ctx, 2, out, addStage("a", 0))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq := w*per + i
				if err := s.Send(ctx, 0, &Message{Seq: uint64(seq), Payload: seq}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for range workers * per {
		m, err := out.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if seen[m.Seq] || m.Seq != uint64(m.Payload.(int)) {
			t.Errorf("message with payload %v left as Seq %d (seen before: %v)", m.Payload, m.Seq, seen[m.Seq])
		}
		seen[m.Seq] = true
	}
}

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
