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

// twoStages starts two stages under ctx, each behind a queue of depth
// messages and both answering on out: "double" (stage 0), which fails a
// negative input, and "inc" (stage 1).
func twoStages(ctx context.Context, depth int, out Edge) *Stages {
	double := Stage{Name: "double", Fn: func(_ context.Context, m *Message) (*Message, error) {
		v := m.Payload.(int)
		if v < 0 {
			return nil, fmt.Errorf("negative input %d", v)
		}
		return &Message{Payload: v * 2}, nil
	}}
	return StartStages(ctx, depth, out, double, addStage("inc", 1))
}

// TestStagesConcurrentSubmitters: many goroutines send their own
// messages to both stages, and each message's result leaves under its own
// Seq.
func TestStagesConcurrentSubmitters(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 32
	out := NewChannelEdge(n)
	s := twoStages(ctx, 2, out)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Send(ctx, i%2, &Message{Seq: uint64(i), Payload: i}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for range n {
		m, err := out.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		i := int(m.Seq)
		want := i + 1
		if i%2 == 0 {
			want = 2 * i
		}
		if m.Err != nil || m.Payload.(int) != want {
			t.Errorf("request %d got %v (err %v), want %d", i, m.Payload, m.Err, want)
		}
	}
}

// TestStagesErrorIsolation: a failing message returns its own error
// (with the failing stage) without disturbing the next one.
func TestStagesErrorIsolation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out := NewChannelEdge(2)
	s := twoStages(ctx, 4, out)
	defer s.Close()
	if err := s.Send(ctx, 0, &Message{Seq: 1, Payload: -7}); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(ctx, 0, &Message{Seq: 2, Payload: 5}); err != nil {
		t.Fatal(err)
	}
	bm, err := out.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var stageErr *StageError
	if bm.Seq != 1 || !errors.As(bm.Err, &stageErr) || stageErr.Stage != "double" {
		t.Errorf("bad request: %+v, want Seq 1 with a *StageError from stage double", bm)
	}
	gm, err := out.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gm.Seq != 2 || gm.Err != nil || gm.Payload.(int) != 10 {
		t.Errorf("good request disturbed: %+v", gm)
	}
}

// TestStagesWindowBounds: a stage runs one message at a time and
// queues depth more; a full queue blocks Send until the stage takes one.
func TestStagesWindowBounds(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	gate, entered := make(chan struct{}), make(chan struct{}, 4)
	stall := Stage{Name: "stall", Fn: func(ctx context.Context, m *Message) (*Message, error) {
		entered <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &Message{Payload: m.Payload}, nil
	}}
	out := NewChannelEdge(4)
	s := StartStages(ctx, 2, out, stall)
	if err := s.Send(ctx, 0, &Message{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	<-entered // the stage holds message 1
	for seq := uint64(2); seq <= 3; seq++ {
		if err := s.Send(ctx, 0, &Message{Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	blocked, bcancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer bcancel()
	if err := s.Send(blocked, 0, &Message{Seq: 4}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("the queue did not bound admission: %v", err)
	}
	if len(entered) != 0 {
		t.Error("the stage ran a second message while one was in its handler")
	}
	close(gate)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStagesClose: Close drains queued work and stops the stage
// goroutines; a second Close is a no-op.
func TestStagesClose(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out := NewChannelEdge(4)
	s := twoStages(ctx, 4, out)
	for seq := uint64(0); seq < 3; seq++ {
		if err := s.Send(ctx, 0, &Message{Seq: seq, Payload: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if m, err := out.Recv(ctx); err != nil || m.Payload.(int) != 6 {
			t.Fatalf("queued request lost on close: %+v, %v", m, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestStagesSubmitCloseRace: the sender fills both queues and closes
// while a stage is busy in its handler. Close must neither panic nor
// return before the busy stage and its queue are done: every sent message
// is answered, and no stage goroutine outlives Close. Run under -race.
func TestStagesSubmitCloseRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		const n = 8
		var running atomic.Int32
		busy := make(chan struct{}, n)
		slow := Stage{Name: "slow", Fn: func(_ context.Context, m *Message) (*Message, error) {
			running.Add(1)
			defer running.Add(-1)
			busy <- struct{}{}
			time.Sleep(time.Millisecond)
			return &Message{Payload: m.Payload}, nil
		}}
		out := NewChannelEdge(2 * n)
		s := StartStages(ctx, n, out, slow, addStage("inc", 1))
		for i := 0; i < n; i++ {
			for stage := 0; stage < 2; stage++ {
				if err := s.Send(ctx, stage, &Message{Seq: uint64(2*i + stage), Payload: i}); err != nil {
					t.Fatal(err)
				}
			}
		}
		<-busy // the slow stage is inside its handler
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if r := running.Load(); r != 0 {
			t.Fatalf("Close returned with %d handler(s) still running", r)
		}
		if err := out.CloseSend(); err != nil {
			t.Fatal(err)
		}
		answered := 0
		for {
			if _, err := out.Recv(ctx); err != nil {
				break
			}
			answered++
		}
		if answered != 2*n {
			t.Fatalf("%d of %d sent messages answered", answered, 2*n)
		}
		cancel()
	}
}

// TestStagesFailReleasesWindow: when a stage stops early (here: its
// ctx cancelled under a stalled handler), senders blocked on its full
// queue must unblock with the stages' error instead of waiting forever on
// a queue no one drains.
func TestStagesFailReleasesWindow(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	entered := make(chan struct{}, 4)
	stall := Stage{Name: "stall", Fn: func(ctx context.Context, m *Message) (*Message, error) {
		entered <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	s := StartStages(ctx, 1, NewChannelEdge(4), stall)
	if err := s.Send(ctx, 0, &Message{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := s.Send(ctx, 0, &Message{Seq: 2}); err != nil { // fills the queue
		t.Fatal(err)
	}
	cancel() // stops the stage with message 2 still queued
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	for seq := uint64(3); ; seq++ {
		err := s.Send(waitCtx, 0, &Message{Seq: seq})
		if err == nil {
			// The stage took one more before it saw its ctx end: the
			// queue had room. Send again until the queue stays full.
			continue
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatal("Send hung on the full queue of a stage that stopped")
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Send on a stopped stage's full queue: %v, want the stages' error", err)
		}
		break
	}
	if err := s.Close(); !errors.Is(err, context.Canceled) {
		t.Errorf("Close after the stage stopped: %v, want context.Canceled", err)
	}
}
