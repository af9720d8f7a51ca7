package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrDispatcherClosed is returned by Submit after Close, and by Future.Wait
// when the dispatcher shut down before the request completed.
var ErrDispatcherClosed = errors.New("stream: dispatcher closed")

// Dispatcher turns a Pipeline's single ordered result stream into
// per-request completion: any number of goroutines Submit with their own
// context and receive their own result (or error) through a Future. A
// reader goroutine demuxes completed messages by Seq, so in-flight
// requests from independent submitters interleave freely inside the
// pipeline — the serving shape the paper's streaming runtime needs, as
// opposed to the one-shot batch drain of a bare Recv loop.
//
// The dispatcher owns the pipeline lifecycle: NewDispatcher starts it and
// Close drains and stops it, so no stage goroutines outlive the
// dispatcher.
type Dispatcher struct {
	p *Pipeline
	// window, when non-nil, bounds concurrently in-flight requests: a
	// slot is taken at Submit and released when the request leaves the
	// pipeline (not when the waiter collects it), so abandoned waiters
	// cannot grow the in-flight set beyond the bound.
	window chan struct{}

	inflight atomic.Int64

	mu      sync.Mutex
	pending map[uint64]waiter
	err     error
	closed  bool
	// submitting counts Submit calls past the closed-check that have not
	// yet finished enqueuing. Close waits for them before closing the
	// pipeline's intake edge, so a Submit that won the admission race can
	// never send on a closed edge.
	submitting sync.WaitGroup

	// down is closed when the reader terminates with an error, so window
	// waiters unblock even though the slots held by in-flight requests at
	// failure time will never be released.
	down     chan struct{}
	downOnce sync.Once

	readerDone chan struct{}
}

// waiter is one in-flight request's completion route: the channel its
// Future reads and the hook its submitter registered, if any.
type waiter struct {
	ch   chan *Message
	done func(*Message)
}

// NewDispatcher starts the pipeline and its completion reader. window > 0
// bounds the number of concurrently in-flight requests (backpressure for
// submitters beyond the pipeline's own edge buffers); window <= 0 leaves
// admission unbounded. ctx governs the pipeline stages and the reader.
func NewDispatcher(ctx context.Context, p *Pipeline, window int) (*Dispatcher, error) {
	if err := p.Start(ctx); err != nil {
		return nil, err
	}
	d := &Dispatcher{
		p:          p,
		pending:    map[uint64]waiter{},
		down:       make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	if window > 0 {
		d.window = make(chan struct{}, window)
	}
	go d.read(ctx)
	return d, nil
}

// read demuxes pipeline results to registered waiters until the pipeline
// drains (Close) or fails.
func (d *Dispatcher) read(ctx context.Context) {
	defer close(d.readerDone)
	for {
		m, err := d.p.Recv(ctx)
		if err != nil {
			if errors.Is(err, ErrEdgeClosed) {
				d.fail(ErrDispatcherClosed)
			} else {
				d.fail(fmt.Errorf("stream: dispatcher reader: %w", err))
			}
			return
		}
		d.inflight.Add(-1)
		if d.window != nil {
			<-d.window
		}
		d.mu.Lock()
		w, ok := d.pending[m.Seq]
		delete(d.pending, m.Seq)
		d.mu.Unlock()
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
func (d *Dispatcher) fail(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	stranded := d.pending
	d.pending = map[uint64]waiter{}
	d.mu.Unlock()
	for seq, w := range stranded {
		if w.done != nil {
			w.done(&Message{Seq: seq, Err: err})
		}
		close(w.ch)
	}
	d.downOnce.Do(func() { close(d.down) })
}

// Future is one submitted request's completion handle.
type Future struct {
	d   *Dispatcher
	seq uint64
	ch  chan *Message
}

// Seq returns the request's pipeline sequence number.
func (f *Future) Seq() uint64 { return f.seq }

// Wait blocks until the request completes (the returned message may carry
// a per-request Err), the dispatcher terminates, or ctx expires. A ctx
// expiry abandons the wait but not the request: it still occupies its
// in-flight slot until it leaves the pipeline.
func (f *Future) Wait(ctx context.Context) (*Message, error) {
	select {
	case m, ok := <-f.ch:
		if !ok {
			return nil, f.d.terminalErr()
		}
		return m, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (d *Dispatcher) terminalErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	return ErrDispatcherClosed
}

// Reserve hands out the next request's sequence number. A caller that
// must key per-request state by it before queueing (an admission check
// that can refuse the request) reserves first and passes the number to
// Submit; a number that is never submitted is only a gap in the sequence.
func (d *Dispatcher) Reserve() uint64 { return d.p.Reserve() }

// Submit registers the completion route for the Reserved sequence number
// seq and enqueues the payload under it. It blocks while the in-flight
// window (and then the pipeline's first edge) is full; a dispatcher that
// terminated while the caller was waiting returns the terminal error
// rather than blocking forever on slots no reader will ever release.
//
// done, when non-nil, runs exactly once for a request Submit accepted, on
// the dispatcher's reader goroutine, before the Future is woken and
// whether or not anyone still waits on it: with the request's final
// message when it leaves the pipeline, or with a message carrying only its
// Seq and the terminal error when the dispatcher terminates with it still
// inside. It may already have run when Submit returns.
func (d *Dispatcher) Submit(ctx context.Context, seq uint64, payload any, done func(*Message)) (*Future, error) {
	if d.window != nil {
		select {
		case d.window <- struct{}{}:
		case <-d.down:
			return nil, d.terminalErr()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	release := func() {
		if d.window != nil {
			// Non-blocking: after a failure the reader is gone and the
			// window is write-only; the down channel already unblocks
			// future submitters.
			select {
			case <-d.window:
			default:
			}
		}
	}
	d.mu.Lock()
	if d.closed || d.err != nil {
		err := d.err
		d.mu.Unlock()
		release()
		if err == nil {
			err = ErrDispatcherClosed
		}
		return nil, err
	}
	ch := make(chan *Message, 1)
	d.pending[seq] = waiter{ch: ch, done: done}
	d.submitting.Add(1)
	d.mu.Unlock()

	d.inflight.Add(1)
	err := d.p.SubmitReserved(ctx, seq, payload)
	d.submitting.Done()
	if err != nil {
		d.inflight.Add(-1)
		d.mu.Lock()
		_, unclaimed := d.pending[seq]
		delete(d.pending, seq)
		d.mu.Unlock()
		release()
		if unclaimed {
			return nil, err
		}
		// The dispatcher terminated first and has already handed the
		// request to done: the Future reports that same terminal error.
	}
	return &Future{d: d, seq: seq, ch: ch}, nil
}

// Do is Submit followed by Wait: the synchronous per-request call most
// submitters want.
func (d *Dispatcher) Do(ctx context.Context, payload any) (*Message, error) {
	f, err := d.Submit(ctx, d.Reserve(), payload, nil)
	if err != nil {
		return nil, err
	}
	return f.Wait(ctx)
}

// InFlight reports how many submitted requests have not yet completed.
func (d *Dispatcher) InFlight() int64 { return d.inflight.Load() }

// Close stops admission, lets in-flight requests drain, stops the
// pipeline stages, and returns the first stage error, if any. Safe to
// call more than once.
func (d *Dispatcher) Close() error {
	d.mu.Lock()
	already := d.closed
	d.closed = true
	d.mu.Unlock()
	if !already {
		// Admission is stopped (closed is set), but a Submit that passed
		// the closed check may still be enqueuing: closing the intake edge
		// under it would panic the send. Wait them out first.
		d.submitting.Wait()
		d.p.Close()
	}
	<-d.readerDone
	return d.p.Wait()
}
