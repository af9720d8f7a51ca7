// Package stream is PP-Stream's distributed stream processing substrate,
// standing in for the AF-Stream system the paper's prototype builds on.
// Inference requests are treated as a real-time data stream flowing
// through stages; each stage owns a bounded input queue and one goroutine
// that runs its messages one at a time, parallelizing tensor processing
// inside one request across the stage's worker threads, while different
// requests occupy different stages simultaneously (pipeline parallelism).
//
// Stages connect through Edges. Inside one process an edge is a bounded
// channel (NewChannelEdge); the TCP edge carries wire-format v3 frames
// (wire.go) between servers. The protocol session runs each linear round
// as one Stage of a Stages set, and core.Engine is that session over a
// pair of in-process edges.
package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ppstream/internal/obs"
)

// Message is one unit flowing through the stages: an inference request
// (or its intermediate tensor) tagged with a sequence number.
type Message struct {
	// Seq identifies the request; a stage's output carries its input's.
	Seq uint64
	// Payload is stage-specific data. To cross a TCP edge it must
	// implement WirePayload, its tag registered with RegisterWireType.
	Payload any
	// Err carries the request's failure to its peer. A stage's handler
	// failure arrives as a *StageError. Across a TCP edge Err travels as
	// its text, its wire code and the failing stage's name (see
	// CodedError), and arrives as an error that still matches the
	// sender's coded sentinels with errors.Is.
	Err error
	// Enqueued is stamped when the message enters a stage's queue,
	// feeding the queue-wait metric.
	Enqueued time.Time
}

// StageError is a request's failure in the stage whose handler raised it.
// The stage contains it to that one request: it keeps serving, and the
// error reaches the request's peer as the request's outcome.
type StageError struct {
	Stage string
	Err   error
}

func (e *StageError) Error() string { return "stage " + e.Stage + ": " + e.Err.Error() }

// Unwrap returns the handler's error.
func (e *StageError) Unwrap() error { return e.Err }

// Span records one stage's handling of a request: the time it waited in
// the stage's input queue and the handler's execution time. Together
// the spans of a completed request are the per-stage latency breakdown
// the paper's Tables IV/V report.
type Span struct {
	Stage string
	Wait  time.Duration
	Busy  time.Duration
}

// Trace is the per-request record of stage spans, as core.Engine.Submit
// returns it.
type Trace struct {
	// ID is the request's distributed-tracing identifier (see
	// obs.TraceTree).
	ID    string
	Spans []Span
}

// Stage is one step of the staged runtime: the name its failures carry
// and the handler that turns a request's message into the message the
// stage sends on. Run calls Fn from one goroutine, a message at a time.
type Stage struct {
	Name string
	Fn   func(ctx context.Context, m *Message) (*Message, error)
	// Wait and Busy, when non-nil, observe each message's time in the
	// stage's queue and in Fn.
	Wait, Busy *obs.Histogram
}

// Run handles the messages of in one at a time until in closes (nil) or
// ctx ends or out fails (that error). Each result goes to out under its
// input's Seq; a handler error — or a panic, which fails only the message
// that raised it — goes to out as the message's *StageError, and the
// stage keeps serving.
func (s *Stage) Run(ctx context.Context, in, out Edge) error {
	for {
		m, err := in.Recv(ctx)
		if errors.Is(err, ErrEdgeClosed) {
			return nil
		}
		if err != nil {
			return err
		}
		if !m.Enqueued.IsZero() {
			s.Wait.Observe(time.Since(m.Enqueued))
		}
		start := time.Now()
		next, err := s.process(ctx, m)
		s.Busy.Observe(time.Since(start))
		if err != nil {
			next = &Message{Err: &StageError{Stage: s.Name, Err: err}}
		}
		next.Seq = m.Seq
		if err := out.Send(ctx, next); err != nil {
			return err
		}
	}
}

// process invokes the handler with panic containment — the fault
// containment the AF-Stream substrate provides in the paper's prototype.
func (s *Stage) process(ctx context.Context, m *Message) (out *Message, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("handler panic: %v", r)
		}
	}()
	return s.Fn(ctx, m)
}

// Stages runs a set of stages side by side, each behind its own bounded
// queue and on its own goroutine, all answering on one output edge: a
// message sent to stage i waits its turn behind the messages already
// queued there, while messages of other stages run at the same time.
// Close must follow every Send: the session's receive loop is its one
// sender and closes it after its last Send.
type Stages struct {
	queues []*channelEdge
	wg     sync.WaitGroup

	// down is closed when the first stage stops early (ctx, or a failed
	// out), so a Send blocked on its full queue sees err.
	down     chan struct{}
	downOnce sync.Once
	err      error
}

// StartStages starts one goroutine per stage, each reading a queue of
// depth messages (at least one) and sending its results to out. ctx
// governs every goroutine.
func StartStages(ctx context.Context, depth int, out Edge, stages ...Stage) *Stages {
	s := &Stages{down: make(chan struct{})}
	for i := range stages {
		st, q := &stages[i], newChannelEdge(depth)
		s.queues = append(s.queues, q)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := st.Run(ctx, q, out); err != nil {
				s.downOnce.Do(func() {
					s.err = err
					close(s.down)
				})
			}
		}()
	}
	return s
}

// Send stamps m and queues it for stage i, blocking while that queue is
// full. It fails when a stage stopped early (its error, the stages' ctx
// ending among them) or when ctx ends.
func (s *Stages) Send(ctx context.Context, i int, m *Message) error {
	m.Enqueued = time.Now()
	select {
	case s.queues[i].ch <- m:
		return nil
	case <-s.down:
		return s.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close lets every stage drain its queue and returns once the stage
// goroutines have exited: nil after an orderly drain, or the error that
// stopped a stage first. Safe to call more than once.
func (s *Stages) Close() error {
	for _, q := range s.queues {
		q.CloseSend()
	}
	s.wg.Wait()
	select {
	case <-s.down:
		return s.err
	default:
		return nil
	}
}
