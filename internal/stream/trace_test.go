package stream

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"ppstream/internal/obs"
)

// TestTraceOneSpanPerStage asserts a completed message carries exactly
// one span per stage, in order, with non-negative durations.
func TestTraceOneSpanPerStage(t *testing.T) {
	names := []string{"s1", "s2", "s3"}
	handlers := make([]Handler, len(names))
	for i, n := range names {
		handlers[i] = addHandler(n, 1)
	}
	p, err := NewPipeline(2, handlers...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p.Start(ctx)
	const n = 4
	go func() {
		for i := 0; i < n; i++ {
			p.Submit(ctx, i)
		}
		p.Close()
	}()
	for i := 0; i < n; i++ {
		m, err := p.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.Trace == nil {
			t.Fatal("completed message has no trace")
		}
		if len(m.Trace.Spans) != len(names) {
			t.Fatalf("trace has %d spans, want %d: %+v", len(m.Trace.Spans), len(names), m.Trace.Spans)
		}
		for j, span := range m.Trace.Spans {
			if span.Stage != names[j] {
				t.Errorf("span %d stage %q, want %q", j, span.Stage, names[j])
			}
			if span.Wait < 0 || span.Busy < 0 {
				t.Errorf("span %d has negative durations: %+v", j, span)
			}
		}
		if m.Trace.Total() < 0 {
			t.Errorf("trace total negative: %v", m.Trace.Total())
		}
	}
	p.Wait()
}

// TestErrorPreservesPayloadAndTrace asserts a handler failure keeps the
// failing stage's input payload and the trace on the errored message.
func TestErrorPreservesPayloadAndTrace(t *testing.T) {
	boom := HandlerFunc{StageName: "boom", Fn: func(_ context.Context, m *Message) (*Message, error) {
		return nil, fmt.Errorf("injected")
	}}
	p, _ := NewPipeline(2, addHandler("pre", 1), boom, addHandler("post", 1))
	ctx := context.Background()
	p.Start(ctx)
	go func() {
		p.Submit(ctx, 41)
		p.Close()
	}()
	m, err := p.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Err == "" {
		t.Fatal("expected an errored message")
	}
	if m.FailedStage != "boom" {
		t.Errorf("FailedStage %q, want boom", m.FailedStage)
	}
	// "pre" added 1, so the payload entering boom was 42.
	if got, ok := m.FailedPayload.(int); !ok || got != 42 {
		t.Errorf("FailedPayload %v (%T), want 42", m.FailedPayload, m.FailedPayload)
	}
	if m.Trace == nil || len(m.Trace.Spans) != 3 {
		t.Fatalf("errored message trace %+v, want 3 spans", m.Trace)
	}
	// Downstream pass-through stage recorded zero busy time.
	if last := m.Trace.Spans[2]; last.Stage != "post" || last.Busy != 0 {
		t.Errorf("pass-through span %+v, want post with zero busy", last)
	}
	p.Wait()
}

// TestErrorPassThroughDoesNotSkewWait asserts errored pass-throughs stay
// out of a downstream stage's wait/busy metrics.
func TestErrorPassThroughDoesNotSkewWait(t *testing.T) {
	boom := HandlerFunc{StageName: "boom", Fn: func(_ context.Context, m *Message) (*Message, error) {
		if m.Payload.(int) == 0 {
			return nil, fmt.Errorf("injected")
		}
		return m, nil
	}}
	p, _ := NewPipeline(2, boom, addHandler("post", 1))
	ctx := context.Background()
	p.Start(ctx)
	go func() {
		for i := 0; i < 3; i++ {
			p.Submit(ctx, i)
		}
		p.Close()
	}()
	for i := 0; i < 3; i++ {
		if _, err := p.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	p.Wait()
	snap := p.Stages()[1].Metrics().Snapshot()
	if snap.Processed != 2 {
		t.Errorf("post processed %d, want 2 (errored message must not count)", snap.Processed)
	}
}

func TestPipelineSnapshotAndInstrument(t *testing.T) {
	reg := obs.NewRegistry("pipeline")
	p, _ := NewPipeline(3, addHandler("a", 1), addHandler("b", 1))
	p.Instrument(reg)
	ctx := context.Background()
	p.Start(ctx)
	const n = 6
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
	p.Wait()

	snaps := p.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("%d stage snapshots, want 2", len(snaps))
	}
	for _, s := range snaps {
		if s.Processed != n {
			t.Errorf("stage %s processed %d, want %d", s.Stage, s.Processed, n)
		}
		if s.QueueCap != 3 {
			t.Errorf("stage %s queue cap %d, want 3", s.Stage, s.QueueCap)
		}
		if s.QueueDepth != 0 {
			t.Errorf("stage %s drained queue depth %d, want 0", s.Stage, s.QueueDepth)
		}
	}
	rs := reg.Snapshot()
	for _, name := range []string{"stage.a.wait", "stage.a.busy", "stage.b.wait", "stage.b.busy"} {
		h, ok := rs.Histograms[name]
		if !ok || h.Count != n {
			t.Errorf("histogram %s count %d (ok=%v), want %d", name, h.Count, ok, n)
		}
	}
	if _, ok := rs.Gauges["edge.a.in.depth"]; !ok {
		t.Error("queue depth gauge not registered")
	}
}

// TestSubmitConcurrentSeq checks atomic sequence assignment under
// parallel submitters (run with -race).
func TestSubmitConcurrentSeq(t *testing.T) {
	p, _ := NewPipeline(64, addHandler("a", 0))
	ctx := context.Background()
	p.Start(ctx)
	const workers, per = 4, 16
	done := make(chan struct{})
	go func() {
		defer close(done)
		seen := map[uint64]bool{}
		for i := 0; i < workers*per; i++ {
			m, err := p.Recv(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			if seen[m.Seq] {
				t.Errorf("duplicate seq %d", m.Seq)
			}
			seen[m.Seq] = true
		}
	}()
	var wg chan struct{} = make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < per; i++ {
				if _, err := p.Submit(ctx, i); err != nil {
					t.Error(err)
				}
			}
			wg <- struct{}{}
		}()
	}
	for w := 0; w < workers; w++ {
		<-wg
	}
	p.Close()
	<-done
	p.Wait()
}

// TestInstrumentedTCPEdge checks wire byte/frame counters and that the
// trace survives the TCP hop.
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
		Trace:   &Trace{Spans: []Span{{Stage: "encrypt", Wait: time.Millisecond, Busy: 2 * time.Millisecond}}},
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
	if got.Trace == nil || len(got.Trace.Spans) != 1 || got.Trace.Spans[0].Stage != "encrypt" {
		t.Fatalf("trace lost over TCP edge: %+v", got.Trace)
	}
	s := reg.Snapshot()
	if s.Counters["tcp.frames_sent"] != 1 || s.Counters["tcp.frames_recv"] != 1 {
		t.Errorf("frame counters %v, want 1/1", s.Counters)
	}
	if s.Counters["tcp.bytes_sent"] == 0 || s.Counters["tcp.bytes_recv"] == 0 {
		t.Errorf("byte counters not recorded: %v", s.Counters)
	}
}
