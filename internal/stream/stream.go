// Package stream is PP-Stream's distributed stream processing substrate,
// standing in for the AF-Stream system the paper's prototype builds on.
// Inference requests are treated as a real-time data stream flowing
// through pipelined stages; each stage owns a pool of worker threads that
// parallelize tensor processing inside one request, while different
// requests occupy different stages simultaneously (pipeline parallelism).
//
// Stages connect through Edges. The in-process edge is a bounded channel;
// the TCP edge carries wire-format v1 frames (wire.go) between servers, so
// the same pipeline runs single-process or genuinely distributed.
package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"ppstream/internal/obs"
)

// Message is one unit flowing through the pipeline: an inference request
// (or its intermediate tensor) tagged with a sequence number.
type Message struct {
	// Seq orders requests; stages preserve arrival order per edge.
	Seq uint64
	// Payload is stage-specific data. To cross a TCP edge it must
	// implement WirePayload, its tag registered with RegisterWireType.
	Payload any
	// Err carries the request's failure downstream to its submitter;
	// stages pass errored messages through untouched. A stage's handler
	// failure arrives as a *StageError. Across a TCP edge Err travels as
	// its text, its wire code and the failing stage's name (see
	// CodedError), and arrives as an error that still matches the
	// sender's coded sentinels with errors.Is.
	Err error
	// Enqueued is stamped when the message enters an edge, feeding the
	// queue-wait metric.
	Enqueued time.Time
	// Trace, when non-nil, accumulates one Span per stage the message
	// passes through. Submit attaches a fresh Trace to every request.
	Trace *Trace
}

// StageError is a request's failure in the stage whose handler raised it.
// The pipeline contains it to that one request: the stage keeps serving,
// and the error reaches the submitter as the request's outcome.
type StageError struct {
	Stage string
	Err   error
}

func (e *StageError) Error() string { return "stage " + e.Stage + ": " + e.Err.Error() }

// Unwrap returns the handler's error.
func (e *StageError) Unwrap() error { return e.Err }

// Span records one stage's handling of a message: the time it waited in
// the stage's input queue and the handler's execution time. Together
// the spans of a completed request are the per-stage latency breakdown
// the paper's Tables IV/V report.
type Span struct {
	Stage string
	Wait  time.Duration
	Busy  time.Duration
}

// Trace is the per-request record of stage spans, carried along the
// message (including across TCP edges) and returned with the result.
type Trace struct {
	// ID is the request's distributed-tracing identifier, assigned at
	// Submit and propagated in every wire frame so spans recorded by
	// different parties can be correlated and merged (see obs.TraceTree).
	ID    string
	Spans []Span
}

// Total sums queue-wait plus busy time across all spans: the request's
// in-pipeline latency.
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	var d time.Duration
	for _, s := range t.Spans {
		d += s.Wait + s.Busy
	}
	return d
}

// Handler processes one message. Implementations parallelize internally
// across the stage's worker threads.
type Handler interface {
	// Name identifies the handler for logs and metrics.
	Name() string
	// Process consumes a message and produces the next one. It must be
	// safe to call sequentially from the stage's dispatch goroutine.
	Process(ctx context.Context, m *Message) (*Message, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc struct {
	StageName string
	Fn        func(ctx context.Context, m *Message) (*Message, error)
}

// Name implements Handler.
func (h HandlerFunc) Name() string { return h.StageName }

// Process implements Handler.
func (h HandlerFunc) Process(ctx context.Context, m *Message) (*Message, error) {
	return h.Fn(ctx, m)
}

// Metrics aggregates a stage's runtime counters. All fields are updated
// atomically and may be read concurrently.
type Metrics struct {
	Processed atomic.Uint64
	Errors    atomic.Uint64
	// BusyNanos accumulates handler execution time.
	BusyNanos atomic.Int64
	// WaitNanos accumulates time messages spent queued before this
	// stage.
	WaitNanos atomic.Int64
}

// Snapshot returns a plain-values copy.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Processed: m.Processed.Load(),
		Errors:    m.Errors.Load(),
		Busy:      time.Duration(m.BusyNanos.Load()),
		Wait:      time.Duration(m.WaitNanos.Load()),
	}
}

// MetricsSnapshot is a point-in-time view of stage metrics.
type MetricsSnapshot struct {
	Processed uint64
	Errors    uint64
	Busy      time.Duration
	Wait      time.Duration
}

// Stage runs a handler between an input and an output edge.
type Stage struct {
	name    string
	handler Handler
	in      Edge
	out     Edge
	metrics Metrics
	// Optional obs instrumentation (set via Instrument before Start):
	// latency histograms feeding p50/p95/p99 snapshots; the busy one also
	// keeps its last minute, so /debug/live shows which stage is hot right
	// now rather than averaged over the process lifetime.
	waitHist *obs.Histogram
	busyHist *obs.Histogram
}

// NewStage creates a stage. Both edges must be non-nil.
func NewStage(name string, h Handler, in, out Edge) (*Stage, error) {
	if h == nil {
		return nil, fmt.Errorf("stream: stage %s has no handler", name)
	}
	if in == nil || out == nil {
		return nil, fmt.Errorf("stream: stage %s needs both edges", name)
	}
	return &Stage{name: name, handler: h, in: in, out: out}, nil
}

// Name returns the stage name.
func (s *Stage) Name() string { return s.name }

// Metrics exposes the stage's counters.
func (s *Stage) Metrics() *Metrics { return &s.metrics }

// Instrument publishes the stage's queue-wait and busy-time latency
// histograms to reg as "stage.<name>.wait" and "stage.<name>.busy", the
// latter with its live view, and its handler failures as the
// "stage.<name>.errors" gauge. Must be called before the pipeline starts.
func (s *Stage) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.waitHist = reg.Histogram("stage." + s.name + ".wait")
	s.busyHist = reg.LiveHistogram("stage." + s.name + ".busy")
	reg.GaugeFunc("stage."+s.name+".errors", func() int64 { return int64(s.metrics.Errors.Load()) })
}

// run dispatches messages until the input edge closes or ctx is
// cancelled. A handler error converts the message into an errored one
// that keeps flowing so the submitter sees the failure; the stage keeps
// serving subsequent requests (fault containment).
func (s *Stage) run(ctx context.Context) error {
	for {
		m, err := s.in.Recv(ctx)
		if err != nil {
			if errors.Is(err, ErrEdgeClosed) || errors.Is(err, context.Canceled) {
				return s.out.CloseSend()
			}
			return fmt.Errorf("stream: stage %s recv: %w", s.name, err)
		}
		var wait time.Duration
		if !m.Enqueued.IsZero() {
			wait = time.Since(m.Enqueued)
		}
		var next *Message
		var busy time.Duration
		if m.Err != nil {
			// Pass failures through untouched. Their transit time stays
			// out of WaitNanos/the histograms so error traffic does not
			// skew the per-stage latency profile of real work.
			next = m
		} else {
			s.metrics.WaitNanos.Add(wait.Nanoseconds())
			if s.waitHist != nil {
				s.waitHist.Observe(wait)
			}
			start := time.Now()
			var out *Message
			var perr error
			// Label the handler's execution for continuous profiling: CPU
			// samples taken while this stage works a message carry the stage
			// name (and the request's trace ID when traced), so a pprof
			// capture splits time by stage without guessing from stacks.
			labels := []string{"stage", s.name}
			if m.Trace != nil && m.Trace.ID != "" {
				labels = append(labels, "trace", m.Trace.ID)
			}
			pprof.Do(ctx, pprof.Labels(labels...), func(ctx context.Context) {
				out, perr = s.process(ctx, m)
			})
			busy = time.Since(start)
			s.metrics.BusyNanos.Add(busy.Nanoseconds())
			if s.busyHist != nil {
				s.busyHist.Observe(busy)
			}
			if perr != nil {
				s.metrics.Errors.Add(1)
				next = &Message{Seq: m.Seq, Err: &StageError{Stage: s.name, Err: perr}}
			} else {
				s.metrics.Processed.Add(1)
				next = out
				next.Seq = m.Seq
			}
		}
		if m.Trace != nil {
			next.Trace = m.Trace
			next.Trace.Spans = append(next.Trace.Spans, Span{Stage: s.name, Wait: wait, Busy: busy})
		}
		next.Enqueued = time.Now()
		if err := s.out.Send(ctx, next); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil
			}
			return fmt.Errorf("stream: stage %s send: %w", s.name, err)
		}
	}
}

// process invokes the handler with panic containment: a panicking
// handler fails only the current request (surfaced as its error), and
// the stage keeps serving subsequent requests — the fault-containment
// behaviour the AF-Stream substrate provides in the paper's prototype.
func (s *Stage) process(ctx context.Context, m *Message) (out *Message, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = fmt.Errorf("handler panic: %v", r)
		}
	}()
	return s.handler.Process(ctx, m)
}

// Pipeline is an ordered chain of stages fed by Submit and drained by
// Results.
type Pipeline struct {
	stages []*Stage
	first  Edge
	last   Edge
	seq    atomic.Uint64

	mu      sync.Mutex
	started bool
	done    chan struct{}
	runErr  error
}

// NewPipeline chains handlers with fresh in-process edges of the given
// buffer depth. For custom (e.g. TCP) edges assemble stages manually and
// use Assemble.
func NewPipeline(buffer int, handlers ...Handler) (*Pipeline, error) {
	if len(handlers) == 0 {
		return nil, errors.New("stream: pipeline needs at least one stage")
	}
	edges := make([]Edge, len(handlers)+1)
	for i := range edges {
		edges[i] = NewChannelEdge(buffer)
	}
	stages := make([]*Stage, len(handlers))
	for i, h := range handlers {
		st, err := NewStage(h.Name(), h, edges[i], edges[i+1])
		if err != nil {
			return nil, err
		}
		stages[i] = st
	}
	return Assemble(stages, edges[0], edges[len(edges)-1])
}

// Assemble builds a pipeline from externally wired stages. first is the
// edge Submit writes to; last is the edge Results drains.
func Assemble(stages []*Stage, first, last Edge) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, errors.New("stream: no stages")
	}
	if first == nil || last == nil {
		return nil, errors.New("stream: pipeline needs boundary edges")
	}
	return &Pipeline{stages: stages, first: first, last: last, done: make(chan struct{})}, nil
}

// Start launches all stage goroutines. It returns immediately; Wait or
// Results report completion.
func (p *Pipeline) Start(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return errors.New("stream: pipeline already started")
	}
	p.started = true
	var wg sync.WaitGroup
	errCh := make(chan error, len(p.stages))
	for _, st := range p.stages {
		wg.Add(1)
		go func(st *Stage) {
			defer wg.Done()
			if err := st.run(ctx); err != nil {
				errCh <- err
			}
		}(st)
	}
	go func() {
		wg.Wait()
		close(errCh)
		for err := range errCh {
			if err != nil && p.runErr == nil {
				p.runErr = err
			}
		}
		close(p.done)
	}()
	return nil
}

// Submit enqueues a payload as the next request and returns its sequence
// number. Every submitted message carries a fresh Trace that stages
// append their spans to.
func (p *Pipeline) Submit(ctx context.Context, payload any) (uint64, error) {
	seq := p.Reserve()
	if err := p.SubmitReserved(ctx, seq, payload); err != nil {
		return 0, err
	}
	return seq, nil
}

// Reserve allocates the next sequence number without enqueuing anything.
// Completion routers (see Dispatcher) reserve first so they can register
// a waiter for the sequence before the message can possibly complete.
func (p *Pipeline) Reserve() uint64 { return p.seq.Add(1) - 1 }

// SubmitReserved enqueues a payload under a previously Reserved sequence
// number. The attached Trace carries a fresh distributed-tracing ID.
func (p *Pipeline) SubmitReserved(ctx context.Context, seq uint64, payload any) error {
	m := &Message{Seq: seq, Payload: payload, Enqueued: time.Now(), Trace: &Trace{ID: obs.NewTraceID()}}
	return p.first.Send(ctx, m)
}

// Close signals that no more requests will be submitted; stages drain and
// shut down in order.
func (p *Pipeline) Close() error { return p.first.CloseSend() }

// Recv returns the next completed message (possibly carrying an Err).
func (p *Pipeline) Recv(ctx context.Context) (*Message, error) {
	return p.last.Recv(ctx)
}

// Wait blocks until all stages have exited and returns the first stage
// error, if any.
func (p *Pipeline) Wait() error {
	<-p.done
	return p.runErr
}

// Stages exposes the pipeline's stages for metrics inspection.
func (p *Pipeline) Stages() []*Stage { return p.stages }

// Instrument publishes the pipeline's stage latency histograms and
// queue-depth gauges to reg. Call before Start; histograms accumulate
// across the pipeline's lifetime and snapshot as p50/p95/p99.
func (p *Pipeline) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, st := range p.stages {
		st.Instrument(reg)
		if d, ok := st.in.(depthReporter); ok {
			reg.GaugeFunc("edge."+st.name+".in.depth", d.Depth)
		}
	}
	if d, ok := p.last.(depthReporter); ok {
		reg.GaugeFunc("edge.out.depth", d.Depth)
	}
}
