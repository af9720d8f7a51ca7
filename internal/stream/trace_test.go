package stream

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ppstream/internal/obs"
)

// TestTraceOneSpanPerStage asserts a completed message carries exactly
// one span per stage, in order, with non-negative durations.
func TestTraceOneSpanPerStage(t *testing.T) {
	names := []string{"s1", "s2", "s3"}
	stages := make([]Stage, len(names))
	for i, n := range names {
		stages[i] = addStage(n, 1)
	}
	p := newTestPipeline(t, nil, stages...)
	for _, m := range submitAll(t, p, 0, 1, 2, 3) {
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
}

// TestErrorPreservesTrace asserts a handler failure names its stage and
// keeps the trace on the errored message.
func TestErrorPreservesTrace(t *testing.T) {
	boom := Stage{Name: "boom", Fn: func(_ context.Context, m *Message) (*Message, error) {
		return nil, fmt.Errorf("injected")
	}}
	p := newTestPipeline(t, nil, addStage("pre", 1), boom, addStage("post", 1))
	m := submitAll(t, p, 41)[0]
	var stageErr *StageError
	if !errors.As(m.Err, &stageErr) || stageErr.Stage != "boom" {
		t.Fatalf("err %v, want a *StageError from stage boom", m.Err)
	}
	if m.Trace == nil || len(m.Trace.Spans) != 3 {
		t.Fatalf("errored message trace %+v, want 3 spans", m.Trace)
	}
	// Downstream pass-through stage recorded zero busy time.
	if last := m.Trace.Spans[2]; last.Stage != "post" || last.Busy != 0 {
		t.Errorf("pass-through span %+v, want post with zero busy", last)
	}
}

// TestErrorPassThroughDoesNotSkewWait asserts errored pass-throughs stay
// out of a downstream stage's wait/busy metrics.
func TestErrorPassThroughDoesNotSkewWait(t *testing.T) {
	boom := Stage{Name: "boom", Fn: func(_ context.Context, m *Message) (*Message, error) {
		if m.Payload.(int) == 0 {
			return nil, fmt.Errorf("injected")
		}
		return m, nil
	}}
	reg := obs.NewRegistry("passthrough")
	p := newTestPipeline(t, reg, boom, addStage("post", 1))
	submitAll(t, p, 0, 1, 2)
	rs := reg.Snapshot()
	for _, name := range []string{"stage.post.wait", "stage.post.busy"} {
		if got := rs.Histograms[name].Count; got != 2 {
			t.Errorf("%s counted %d messages, want 2 (the errored one must not count)", name, got)
		}
	}
}

// TestPipelineSnapshotAndInstrument: NewPipeline publishes every stage's
// latency histograms, failure gauge and input-queue depth, and the last
// edge's depth, under the names the engine's registry carries.
func TestPipelineSnapshotAndInstrument(t *testing.T) {
	reg := obs.NewRegistry("pipeline")
	p := newTestPipeline(t, reg, addStage("a", 1), addStage("b", 1))
	const n = 6
	submitAll(t, p, make([]int, n)...)
	rs := reg.Snapshot()
	for _, name := range []string{"stage.a.wait", "stage.a.busy", "stage.b.wait", "stage.b.busy"} {
		h, ok := rs.Histograms[name]
		if !ok || h.Count != n {
			t.Errorf("histogram %s count %d (ok=%v), want %d", name, h.Count, ok, n)
		}
	}
	for _, name := range []string{"stage.a.errors", "stage.b.errors", "edge.a.in.depth", "edge.b.in.depth", "edge.out.depth"} {
		if v, ok := rs.Gauges[name]; !ok || v != 0 {
			t.Errorf("gauge %s = %d (ok=%v), want 0 after a drain", name, v, ok)
		}
	}
	if _, ok := reg.LiveSnapshot().Histograms["stage.a.busy"]; !ok {
		t.Error("stage.a.busy has no live view")
	}
}

// TestSubmitConcurrentSeq checks atomic sequence assignment under
// parallel submitters (run with -race).
func TestSubmitConcurrentSeq(t *testing.T) {
	p := newTestPipeline(t, nil, addStage("a", 0))
	ctx := context.Background()
	const workers, per = 4, 16
	seqs := make(chan uint64, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f, err := p.Submit(ctx, p.Reserve(), i, nil)
				if err != nil {
					t.Error(err)
					return
				}
				m, err := f.Wait(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				seqs <- m.Seq
			}
		}()
	}
	wg.Wait()
	close(seqs)
	seen := map[uint64]bool{}
	for seq := range seqs {
		if seen[seq] {
			t.Errorf("duplicate seq %d", seq)
		}
		seen[seq] = true
	}
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

// TestTraceTreeBreakdown: Tree maps each span to its wait and busy
// segments, and obs.Breakdown over the converted traces skips a nil
// trace and counts every remaining request once per stage segment.
func TestTraceTreeBreakdown(t *testing.T) {
	mk := func(encBusy, linBusy time.Duration) *Trace {
		return &Trace{ID: "req", Spans: []Span{
			{Stage: "encrypt", Wait: time.Millisecond, Busy: encBusy},
			{Stage: "linear-0", Wait: 2 * time.Millisecond, Busy: linBusy},
		}}
	}
	traces := []*Trace{
		mk(10*time.Millisecond, 40*time.Millisecond),
		mk(12*time.Millisecond, 44*time.Millisecond),
		nil, // a dropped or failed request
		mk(11*time.Millisecond, 42*time.Millisecond),
	}
	tree := traces[0].Tree()
	want := []obs.Segment{
		{Name: "encrypt-wait", Round: -1, Dur: time.Millisecond},
		{Name: "encrypt-busy", Round: -1, Dur: 10 * time.Millisecond},
		{Name: "linear-0-wait", Round: -1, Dur: 2 * time.Millisecond},
		{Name: "linear-0-busy", Round: -1, Dur: 40 * time.Millisecond},
	}
	if tree.ID != "req" || tree.Total != 53*time.Millisecond || fmt.Sprint(tree.Segments) != fmt.Sprint(want) {
		t.Errorf("tree %+v, want ID req, total 53ms, segments %+v", tree, want)
	}
	trees := make([]*obs.TraceTree, len(traces))
	for i, tr := range traces {
		trees[i] = tr.Tree()
	}
	if trees[2] != nil {
		t.Errorf("nil trace converted to %+v", trees[2])
	}
	rows := obs.Breakdown(trees)
	if len(rows) != 4 {
		t.Fatalf("%d breakdown rows, want 4: %+v", len(rows), rows)
	}
	for _, r := range rows {
		if r.Count != 3 {
			t.Errorf("segment %s counted %d requests, want 3", r.Label, r.Count)
		}
	}
}
