package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// dispPipeline starts a two-stage pipeline, double then add-one, under
// ctx with the given in-flight window. A negative input makes the first
// stage fail, exercising per-request error routing.
func dispPipeline(ctx context.Context, t *testing.T, window int) *Pipeline {
	t.Helper()
	double := Stage{Name: "double", Fn: func(_ context.Context, m *Message) (*Message, error) {
		v := m.Payload.(int)
		if v < 0 {
			return nil, fmt.Errorf("negative input %d", v)
		}
		return &Message{Payload: v * 2}, nil
	}}
	p, err := NewPipeline(ctx, window, nil, double, addStage("inc", 1))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDispatcherConcurrentSubmitters: many goroutines submit their own
// requests and each receives exactly its own result.
func TestDispatcherConcurrentSubmitters(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d := dispPipeline(ctx, t, 0)
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := d.Submit(ctx, d.Reserve(), i, nil)
			if err != nil {
				errs <- err
				return
			}
			m, err := f.Wait(ctx)
			if err != nil {
				errs <- err
				return
			}
			if m.Err != nil {
				errs <- m.Err
				return
			}
			if got := m.Payload.(int); got != i*2+1 {
				errs <- fmt.Errorf("request %d got %d, want %d", i, got, i*2+1)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if d.InFlight() != 0 {
		t.Errorf("inflight=%d after close", d.InFlight())
	}
}

// TestDispatcherErrorIsolation: a failing request returns its own error
// (with the failing stage) without disturbing concurrent successes.
func TestDispatcherErrorIsolation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d := dispPipeline(ctx, t, 4)
	defer d.Close()

	bad, err := d.Submit(ctx, d.Reserve(), -7, nil)
	if err != nil {
		t.Fatal(err)
	}
	good, err := d.Submit(ctx, d.Reserve(), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := bad.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var stageErr *StageError
	if !errors.As(bm.Err, &stageErr) || stageErr.Stage != "double" {
		t.Errorf("bad request: err=%v, want a *StageError from stage double", bm.Err)
	}
	gm, err := good.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gm.Err != nil || gm.Payload.(int) != 11 {
		t.Errorf("good request disturbed: %+v", gm)
	}
}

// TestDispatcherWindowBounds: the in-flight window limits concurrent
// admissions; a full window blocks Submit until a request completes.
func TestDispatcherWindowBounds(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	gate := make(chan struct{})
	stall := Stage{Name: "stall", Fn: func(ctx context.Context, m *Message) (*Message, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &Message{Payload: m.Payload}, nil
	}}
	d, err := NewPipeline(ctx, 2, nil, stall)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(ctx, d.Reserve(), 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(ctx, d.Reserve(), 2, nil); err != nil {
		t.Fatal(err)
	}
	// Third submit must block on the window.
	blocked, bcancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer bcancel()
	if _, err := d.Submit(blocked, d.Reserve(), 3, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("window did not bound admission: %v", err)
	}
	if got := d.InFlight(); got != 2 {
		t.Errorf("inflight %d, want 2", got)
	}
	close(gate)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatcherClose: Close drains in-flight work, stops the stage
// goroutines, and rejects later submissions.
func TestDispatcherClose(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d := dispPipeline(ctx, t, 0)
	f, err := d.Submit(ctx, d.Reserve(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	closeErr := make(chan error, 1)
	go func() { closeErr <- d.Close() }()
	m, err := f.Wait(ctx)
	if err != nil {
		t.Fatalf("in-flight request lost on close: %v", err)
	}
	if m.Payload.(int) != 7 {
		t.Errorf("payload %v", m.Payload)
	}
	if err := <-closeErr; err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(ctx, d.Reserve(), 4, nil); !errors.Is(err, errClosed) {
		t.Errorf("submit after close: %v", err)
	}
}

// TestDispatcherSubmitCloseRace: Submits racing Close must never panic
// (a Submit past the closed-check sending on a closed intake edge) nor
// deadlock; every Submit either errors or yields a Future whose Wait
// terminates. Run under -race.
func TestDispatcherSubmitCloseRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		d := dispPipeline(ctx, t, 4)
		const n = 16
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				f, err := d.Submit(ctx, d.Reserve(), i, nil)
				if err != nil {
					return // lost the race with Close: acceptable
				}
				// Wait must terminate: with a result before the close
				// barrier, or the pipeline's terminal error.
				if _, err := f.Wait(ctx); err != nil && !errors.Is(err, errClosed) {
					t.Errorf("wait: %v", err)
				}
			}()
		}
		closed := make(chan error, 1)
		go func() {
			<-start
			closed <- d.Close()
		}()
		close(start)
		wg.Wait()
		if err := <-closed; err != nil {
			t.Fatalf("close: %v", err)
		}
		cancel()
	}
}

// TestDispatcherFailReleasesWindow: when the reader dies (here: its ctx
// cancelled under a stalled stage), in-flight requests will never
// release their window slots — later Submits must still unblock with
// the terminal error instead of waiting forever on the full window.
func TestDispatcherFailReleasesWindow(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stall := Stage{Name: "stall", Fn: func(ctx context.Context, m *Message) (*Message, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	d, err := NewPipeline(ctx, 1, nil, stall)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(ctx, d.Reserve(), 1, nil); err != nil { // fills the window
		t.Fatal(err)
	}
	cancel() // kills the reader with the slot still held
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	for {
		_, err := d.Submit(waitCtx, d.Reserve(), 2, nil)
		if err == nil {
			// Won the race with the reader's own demise; the slot came
			// back, try again until the failure is recorded.
			continue
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatal("Submit hung on a window slot the failed reader will never release")
		}
		break // terminal pipeline error: the fix works
	}
}

// TestDispatcherDoneHook: a request's done hook runs exactly once with the
// message it left the pipeline with, before its waiter wakes and even when
// nobody waits; a request stranded inside a pipeline that stopped gets the
// terminal error under its own Seq instead.
func TestDispatcherDoneHook(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d := dispPipeline(ctx, t, 0)
	var calls atomic.Int64
	waited, err := d.Submit(ctx, d.Reserve(), 5, func(m *Message) { calls.Add(int64(m.Payload.(int))) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waited.Wait(ctx); err != nil || calls.Load() != 11 {
		t.Fatalf("waiter woke (err %v) with done total %d, want 11", err, calls.Load())
	}
	if _, err := d.Submit(ctx, d.Reserve(), 7, func(m *Message) { calls.Add(int64(m.Payload.(int))) }); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // drains the abandoned request
		t.Fatal(err)
	}
	if calls.Load() != 11+15 {
		t.Errorf("done total %d after an abandoned request drained, want 26", calls.Load())
	}

	stallCtx, stop := context.WithCancel(ctx)
	defer stop()
	release := make(chan struct{}) // holds the request inside while the reader dies
	defer close(release)
	d, err = NewPipeline(stallCtx, 0, nil, Stage{Name: "stall", Fn: func(_ context.Context, m *Message) (*Message, error) {
		<-release
		return m, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	stranded := make(chan *Message, 2)
	seq := d.Reserve()
	f, err := d.Submit(ctx, seq, 1, func(m *Message) { stranded <- m })
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if _, err := f.Wait(ctx); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stranded waiter: %v, want the pipeline's terminal error", err)
	}
	if m := <-stranded; m.Seq != seq || m.Err == nil || len(stranded) != 0 {
		t.Errorf("stranded request's done saw %+v (%d more calls), want one message with Seq %d and the terminal error", m, len(stranded), seq)
	}
}
