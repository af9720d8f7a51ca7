// Package stream is PP-Stream's distributed stream processing substrate,
// standing in for the AF-Stream system the paper's prototype builds on.
// Inference requests are treated as a real-time data stream flowing
// through pipelined stages; each stage owns a pool of worker threads that
// parallelize tensor processing inside one request, while different
// requests occupy different stages simultaneously (pipeline parallelism).
//
// Stages connect through Edges. Inside one process a Pipeline joins its
// stages with bounded channels; the TCP edge carries wire-format v1 frames
// (wire.go) between servers.
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

// Tree converts the trace into the shape obs.Breakdown aggregates: each
// span becomes a "<stage>-wait" and a "<stage>-busy" segment, and Total is
// the request's in-pipeline latency. A nil trace (a dropped or failed
// request) converts to nil, which Breakdown skips.
func (t *Trace) Tree() *obs.TraceTree {
	if t == nil {
		return nil
	}
	tree := &obs.TraceTree{ID: t.ID, Total: t.Total(), Segments: make([]obs.Segment, 0, 2*len(t.Spans))}
	for _, s := range t.Spans {
		tree.Segments = append(tree.Segments,
			obs.Segment{Name: s.Stage + "-wait", Round: -1, Dur: s.Wait},
			obs.Segment{Name: s.Stage + "-busy", Round: -1, Dur: s.Busy})
	}
	return tree
}

// Stage is one step of a Pipeline: the name its spans, metrics and profile
// labels carry, and the handler that turns a request's message into its
// next one. Fn is called from the stage's one goroutine, a message at a
// time; it parallelizes internally across the stage's worker threads.
type Stage struct {
	Name string
	Fn   func(ctx context.Context, m *Message) (*Message, error)
}

// edgeDepth is the buffer of every edge inside a Pipeline: how far a stage
// may run ahead of its slower neighbour before it blocks.
const edgeDepth = 4

// errClosed ends a Submit after Close, and a Future whose pipeline stopped
// without its request.
var errClosed = errors.New("stream: pipeline closed")

// Pipeline is the in-process streaming runtime: a chain of stages, each on
// its own goroutine, joined by bounded channel edges, plus a completion
// reader that hands every request leaving the last stage to its own
// submitter. Any number of goroutines Submit with their own context and
// receive their own result (or error) through a Future, so requests from
// independent submitters interleave freely inside the pipeline.
type Pipeline struct {
	in  *channelEdge
	seq atomic.Uint64
	// window, when non-nil, bounds concurrently in-flight requests: a
	// slot is taken at Submit and released when the request leaves the
	// pipeline (not when the waiter collects it), so abandoned waiters
	// cannot grow the in-flight set beyond the bound.
	window   chan struct{}
	inflight atomic.Int64

	mu      sync.Mutex
	pending map[uint64]waiter
	err     error
	closed  bool
	// submitting counts Submit calls past the closed-check that have not
	// yet finished enqueuing. Close waits for them before closing the
	// intake edge, so a Submit that won the admission race can never send
	// on a closed edge.
	submitting sync.WaitGroup

	// down is closed when the reader terminates, so window waiters
	// unblock even though the slots held by requests stranded inside will
	// never be released.
	down     chan struct{}
	downOnce sync.Once

	// stopped is closed once the reader and every stage have returned.
	stopped chan struct{}
}

// waiter is one in-flight request's completion route: the channel its
// Future reads and the hook its submitter registered, if any.
type waiter struct {
	ch   chan *Message
	done func(*Message)
}

// stage is a Stage at run time: its edges and its instruments.
type stage struct {
	Stage
	in, out *channelEdge
	errors  atomic.Int64
	// wait and busy feed p50/p95/p99 snapshots; busy also keeps its last
	// minute, so /debug/live shows which stage is hot right now rather
	// than averaged over the process lifetime. Both are nil without a
	// registry and then observe nothing.
	wait, busy *obs.Histogram
}

// NewPipeline starts one goroutine per stage, in the order given, and the
// completion reader. window > 0 bounds the number of concurrently
// in-flight requests (backpressure for submitters beyond the edges' own
// buffers); window <= 0 leaves admission unbounded. ctx governs every
// goroutine the pipeline starts.
//
// reg, when non-nil, receives each stage's queue-wait and busy-time
// latency histograms as "stage.<name>.wait" and "stage.<name>.busy" (the
// latter with its live view), its handler failures as the
// "stage.<name>.errors" gauge, and the queue depths of its input edge and
// of the last edge as "edge.<name>.in.depth" and "edge.out.depth".
func NewPipeline(ctx context.Context, window int, reg *obs.Registry, stages ...Stage) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, errors.New("stream: pipeline needs at least one stage")
	}
	for _, s := range stages {
		if s.Fn == nil {
			return nil, fmt.Errorf("stream: stage %s has no handler", s.Name)
		}
	}
	p := &Pipeline{
		in:      newChannelEdge(edgeDepth),
		pending: map[uint64]waiter{},
		down:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	if window > 0 {
		p.window = make(chan struct{}, window)
	}
	var wg sync.WaitGroup
	edge := p.in
	for _, s := range stages {
		st := &stage{
			Stage: s, in: edge, out: newChannelEdge(edgeDepth),
			wait: reg.Histogram("stage." + s.Name + ".wait"),
			busy: reg.LiveHistogram("stage." + s.Name + ".busy"),
		}
		reg.GaugeFunc("stage."+s.Name+".errors", st.errors.Load)
		reg.GaugeFunc("edge."+s.Name+".in.depth", st.in.Depth)
		edge = st.out
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.run(ctx)
		}()
	}
	reg.GaugeFunc("edge.out.depth", edge.Depth)
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.read(ctx, edge)
	}()
	go func() {
		wg.Wait()
		close(p.stopped)
	}()
	return p, nil
}

// run handles messages until the input edge closes or ctx ends, then
// closes its output edge. A handler error converts the message into an
// errored one that keeps flowing so the submitter sees the failure; the
// stage keeps serving subsequent requests (fault containment).
func (s *stage) run(ctx context.Context) {
	defer s.out.CloseSend()
	for {
		m, err := s.in.Recv(ctx)
		if err != nil {
			return
		}
		var wait time.Duration
		if !m.Enqueued.IsZero() {
			wait = time.Since(m.Enqueued)
		}
		var next *Message
		var busy time.Duration
		if m.Err != nil {
			// Pass failures through untouched. Their transit time stays
			// out of the histograms so error traffic does not skew the
			// per-stage latency profile of real work.
			next = m
		} else {
			s.wait.Observe(wait)
			start := time.Now()
			var out *Message
			var perr error
			// Label the handler's execution for continuous profiling: CPU
			// samples taken while this stage works a message carry the stage
			// name (and the request's trace ID when traced), so a pprof
			// capture splits time by stage without guessing from stacks.
			labels := []string{"stage", s.Name}
			if m.Trace != nil && m.Trace.ID != "" {
				labels = append(labels, "trace", m.Trace.ID)
			}
			pprof.Do(ctx, pprof.Labels(labels...), func(ctx context.Context) {
				out, perr = s.process(ctx, m)
			})
			busy = time.Since(start)
			s.busy.Observe(busy)
			if perr != nil {
				s.errors.Add(1)
				next = &Message{Seq: m.Seq, Err: &StageError{Stage: s.Name, Err: perr}}
			} else {
				next = out
				next.Seq = m.Seq
			}
		}
		if m.Trace != nil {
			next.Trace = m.Trace
			next.Trace.Spans = append(next.Trace.Spans, Span{Stage: s.Name, Wait: wait, Busy: busy})
		}
		next.Enqueued = time.Now()
		if s.out.Send(ctx, next) != nil {
			return
		}
	}
}

// process invokes the handler with panic containment: a panicking
// handler fails only the current request (surfaced as its error), and
// the stage keeps serving subsequent requests — the fault-containment
// behaviour the AF-Stream substrate provides in the paper's prototype.
func (s *stage) process(ctx context.Context, m *Message) (out *Message, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = fmt.Errorf("handler panic: %v", r)
		}
	}()
	return s.Fn(ctx, m)
}

// read routes the messages leaving the last edge to their waiters until
// the stages drain (Close) or ctx ends.
func (p *Pipeline) read(ctx context.Context, last *channelEdge) {
	for {
		m, err := last.Recv(ctx)
		if err != nil {
			// The stages close the last edge after an orderly drain and
			// also when ctx stops them: ctx tells the two apart.
			if ctx.Err() != nil {
				p.fail(fmt.Errorf("stream: pipeline stopped: %w", ctx.Err()))
			} else {
				p.fail(errClosed)
			}
			return
		}
		p.inflight.Add(-1)
		if p.window != nil {
			<-p.window
		}
		p.mu.Lock()
		w, ok := p.pending[m.Seq]
		delete(p.pending, m.Seq)
		p.mu.Unlock()
		if ok {
			if w.done != nil {
				w.done(m)
			}
			w.ch <- m // buffered: never blocks the reader
		}
	}
}

// fail records the terminal error, wakes every waiter, and unblocks
// window waiters: requests in flight at failure time will never leave
// the pipeline through the reader, so their slots would otherwise stay
// occupied forever and later Submits would block on the window without
// ever seeing the terminal error.
func (p *Pipeline) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	stranded := p.pending
	p.pending = map[uint64]waiter{}
	p.mu.Unlock()
	for seq, w := range stranded {
		if w.done != nil {
			w.done(&Message{Seq: seq, Err: err})
		}
		close(w.ch)
	}
	p.downOnce.Do(func() { close(p.down) })
}

func (p *Pipeline) terminalErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	return errClosed
}

// Future is one submitted request's completion handle.
type Future struct {
	p  *Pipeline
	ch chan *Message
}

// Wait blocks until the request completes (the returned message may carry
// a per-request Err), the pipeline terminates, or ctx expires. A ctx
// expiry abandons the wait but not the request: it still occupies its
// in-flight slot until it leaves the pipeline.
func (f *Future) Wait(ctx context.Context) (*Message, error) {
	select {
	case m, ok := <-f.ch:
		if !ok {
			return nil, f.p.terminalErr()
		}
		return m, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Reserve hands out the next request's sequence number. A caller that
// must key per-request state by it before queueing (an admission check
// that can refuse the request) reserves first and passes the number to
// Submit; a number that is never submitted is only a gap in the sequence.
func (p *Pipeline) Reserve() uint64 { return p.seq.Add(1) - 1 }

// Submit registers the completion route for the Reserved sequence number
// seq and enqueues the payload under it, with a fresh Trace that every
// stage appends its span to. It blocks while the in-flight window (and
// then the first edge) is full; a pipeline that terminated while the
// caller was waiting returns the terminal error rather than blocking
// forever on slots no reader will ever release.
//
// done, when non-nil, runs exactly once for a request Submit accepted, on
// the pipeline's reader goroutine, before the Future is woken and whether
// or not anyone still waits on it: with the request's final message when
// it leaves the pipeline, or with a message carrying only its Seq and the
// terminal error when the pipeline terminates with it still inside. It may
// already have run when Submit returns.
func (p *Pipeline) Submit(ctx context.Context, seq uint64, payload any, done func(*Message)) (*Future, error) {
	if p.window != nil {
		select {
		case p.window <- struct{}{}:
		case <-p.down:
			return nil, p.terminalErr()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	release := func() {
		if p.window != nil {
			// Non-blocking: after a failure the reader is gone and the
			// window is write-only; the down channel already unblocks
			// future submitters.
			select {
			case <-p.window:
			default:
			}
		}
	}
	p.mu.Lock()
	if p.closed || p.err != nil {
		err := p.err
		p.mu.Unlock()
		release()
		if err == nil {
			err = errClosed
		}
		return nil, err
	}
	ch := make(chan *Message, 1)
	p.pending[seq] = waiter{ch: ch, done: done}
	p.submitting.Add(1)
	p.mu.Unlock()

	p.inflight.Add(1)
	err := p.in.Send(ctx, &Message{Seq: seq, Payload: payload, Enqueued: time.Now(), Trace: &Trace{ID: obs.NewTraceID()}})
	p.submitting.Done()
	if err != nil {
		p.inflight.Add(-1)
		p.mu.Lock()
		_, unclaimed := p.pending[seq]
		delete(p.pending, seq)
		p.mu.Unlock()
		release()
		if unclaimed {
			return nil, err
		}
		// The pipeline terminated first and has already handed the
		// request to done: the Future reports that same terminal error.
	}
	return &Future{p: p, ch: ch}, nil
}

// InFlight reports how many submitted requests have not yet completed.
func (p *Pipeline) InFlight() int64 { return p.inflight.Load() }

// Close stops admission, lets in-flight requests drain through every
// stage, and returns once the reader and the stage goroutines have
// exited: nil after an orderly drain, or the error that stopped the
// pipeline first (its ctx ending). Safe to call more than once.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	if !already {
		// Admission is stopped (closed is set), but a Submit that passed
		// the closed check may still be enqueuing: closing the intake edge
		// under it would panic the send. Wait them out first.
		p.submitting.Wait()
		p.in.CloseSend()
	}
	<-p.stopped
	if err := p.terminalErr(); !errors.Is(err, errClosed) {
		return err
	}
	return nil
}
