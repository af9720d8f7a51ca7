package protocol

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ppstream/internal/obs"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// newCallTable is a client's call table, resending round 0 up to
// maxAttempts times.
func newCallTable(maxAttempts int) callTable {
	return callTable{maxAttempts: maxAttempts, live: map[uint64]*call{}}
}

// openCall opens call id in tb, due by deadline, and returns its channel.
func openCall(t *testing.T, tb *callTable, id uint64, deadline time.Time) chan answer {
	t.Helper()
	reply := make(chan answer, 1)
	if st := tb.open(id, deadline, reply); st.err != nil {
		t.Fatalf("opening call %d: %v", id, st.err)
	}
	return reply
}

// sendRound stamps call id's frame for round at now and requires no refusal.
func sendRound(t *testing.T, tb *callTable, now time.Time, id uint64, round int) *roundFrame {
	t.Helper()
	f := &roundFrame{Round: round}
	if st := tb.send(now, id, f); st.err != nil {
		t.Fatalf("call %d round %d: %v", id, round, st.err)
	}
	return f
}

// only returns st's one answer, for call id.
func only(t *testing.T, st callStep, id uint64) answer {
	t.Helper()
	if len(st.answers) != 1 || st.answers[0].to.id != id {
		t.Fatalf("step answers %+v, want call %d alone", st.answers, id)
	}
	return st.answers[0]
}

// TestClientTableDeadline: a call's round frame carries what is left of
// its budget in whole milliseconds, at least 1, and none without a
// deadline; once the budget is spent the frame is refused with ErrDeadline
// and the call is not marked as waiting.
func TestClientTableDeadline(t *testing.T) {
	tb := newCallTable(3)
	openCall(t, &tb, 1, at(100))
	if f := sendRound(t, &tb, at(40), 1, 0); f.DeadlineMS != 60 {
		t.Errorf("DeadlineMS %d with 60 ms left, want 60", f.DeadlineMS)
	}
	if f := sendRound(t, &tb, at(100).Add(-time.Microsecond), 1, 0); f.DeadlineMS != 1 {
		t.Errorf("DeadlineMS %d with 1 µs left, want 1", f.DeadlineMS)
	}
	tb.live[1].sent = false
	f := &roundFrame{Round: 1}
	st := tb.send(at(100), 1, f)
	if !errors.Is(st.err, ErrDeadline) || f.DeadlineMS != 0 || tb.live[1].sent {
		t.Errorf("send at the deadline: %v, DeadlineMS %d, waiting %v; want ErrDeadline and no send", st.err, f.DeadlineMS, tb.live[1].sent)
	}
	openCall(t, &tb, 2, time.Time{})
	if f := sendRound(t, &tb, at(1e6), 2, 0); f.DeadlineMS != 0 {
		t.Errorf("DeadlineMS %d without a deadline, want 0", f.DeadlineMS)
	}
}

// TestClientTableRetriesShedRoundZero: a shed round 0 is resent, with
// backoff attempt k after the k-th send, until the call has sent it
// MaxAttempts times, and then given up, each counted once; a shed reply
// to a later round fails the call at once, uncounted.
func TestClientTableRetriesShedRoundZero(t *testing.T) {
	tb := newCallTable(3)
	openCall(t, &tb, 1, time.Time{})
	shed := &stream.Message{Seq: 1, Err: ErrShed}
	for k := 1; k <= 2; k++ {
		sendRound(t, &tb, at(k), 1, 0)
		st := tb.reply(shed)
		if a := only(t, st, 1); a.retry != k || a.err != nil || len(st.count) != 1 || st.count[0] != "retry.attempts" {
			t.Fatalf("shed send %d: %+v, counted %v; want backoff attempt %d and retry.attempts", k, a, st.count, k)
		}
	}
	sendRound(t, &tb, at(3), 1, 0)
	st := tb.reply(shed)
	a := only(t, st, 1)
	if a.retry != 0 || !errors.Is(a.err, ErrShed) || len(st.count) != 1 || st.count[0] != "retry.giveups" || len(tb.live) != 0 {
		t.Fatalf("third shed of 3 attempts: %+v, counted %v, %d live; want a give-up", a, st.count, len(tb.live))
	}

	openCall(t, &tb, 2, time.Time{})
	sendRound(t, &tb, at(4), 2, 1)
	st = tb.reply(&stream.Message{Seq: 2, Err: ErrShed})
	var rerr *RoundError
	if a := only(t, st, 2); a.retry != 0 || !errors.As(a.err, &rerr) || rerr.Round != 1 || len(st.count) != 0 {
		t.Errorf("shed round 1: %+v, counted %v; want the call failed at once", a, st.count)
	}
}

// TestClientTableBadRound: a reply to another round than the one the call
// waits for fails it with ErrBadRound; a copy of a reply the call already
// took is dropped.
func TestClientTableBadRound(t *testing.T) {
	tb := newCallTable(3)
	openCall(t, &tb, 1, time.Time{})
	sendRound(t, &tb, at(0), 1, 0)
	reply := &stream.Message{Seq: 1, Payload: &roundFrame{Round: 0}}
	if a := only(t, tb.reply(reply), 1); a.frame == nil || a.err != nil {
		t.Fatalf("round 0's reply: %+v, want it delivered", a)
	}
	if st := tb.reply(reply); len(st.answers) != 0 || st.err != nil {
		t.Fatalf("a copy of it before round 1 went out: %+v, want it dropped", st)
	}
	sendRound(t, &tb, at(1), 1, 1)
	if a := only(t, tb.reply(reply), 1); !errors.Is(a.err, ErrBadRound) || len(tb.live) != 0 {
		t.Errorf("round 0's reply while waiting for round 1: %+v, want ErrBadRound and the call ended", a)
	}
}

// TestClientTableDropsAbandoned: an error frame for a call that ended, as
// one abandoned at its ctx deadline does, is dropped; the session stays up
// and the next call opens and sends.
func TestClientTableDropsAbandoned(t *testing.T) {
	tb := newCallTable(3)
	openCall(t, &tb, 1, at(10))
	sendRound(t, &tb, at(0), 1, 0)
	tb.end(1)
	st := tb.reply(&stream.Message{Seq: 1, Err: ErrDeadline})
	if st.err != nil || len(st.answers) != 0 || tb.down != nil {
		t.Fatalf("error frame for an ended call: %+v, session down %v; want it dropped", st, tb.down)
	}
	openCall(t, &tb, 2, time.Time{})
	sendRound(t, &tb, at(20), 2, 0)
}

// TestClientTableSessionError: an error frame outside any request (Seq 0)
// is dropped, as the Hello's answer came before any call; the session ends
// only with its edge: every call waiting for a reply is answered with the
// cause, every live call ends, and later calls are refused.
func TestClientTableSessionError(t *testing.T) {
	tb := newCallTable(3)
	openCall(t, &tb, 1, time.Time{})
	openCall(t, &tb, 2, time.Time{})
	openCall(t, &tb, 3, time.Time{})
	sendRound(t, &tb, at(0), 1, 0)
	sendRound(t, &tb, at(0), 2, 0)
	if st := tb.reply(&stream.Message{Err: errors.New("stray")}); st.err != nil || len(st.answers) != 0 || tb.down != nil {
		t.Fatalf("Seq 0 error: %+v, session down %v; want it dropped", st, tb.down)
	}
	st := tb.fail(fmt.Errorf("%w: edge closed", ErrSessionDown))
	if !errors.Is(st.err, ErrSessionDown) || len(st.answers) != 2 || len(tb.live) != 0 {
		t.Fatalf("edge failure: %+v, %d live; want the session down, 2 answers, none live", st, len(tb.live))
	}
	for _, a := range st.answers {
		if a.to.id == 3 || !errors.Is(a.err, ErrSessionDown) {
			t.Errorf("answer %+v to call %d, want ErrSessionDown to a waiting call", a, a.to.id)
		}
	}
	if st := tb.send(at(1), 3, &roundFrame{}); !errors.Is(st.err, ErrSessionDown) {
		t.Errorf("call 3 sending after the session ended: %v", st.err)
	}
	if st := tb.open(4, time.Time{}, nil); !errors.Is(st.err, ErrSessionDown) {
		t.Errorf("opening a call after the session ended: %v", st.err)
	}
}

// TestStepReleasesLockOnPanic: a transition that panics leaves its table's
// lock free, on the session and on the client, so a later step — a tick,
// a call's end — still runs.
func TestStepReleasesLockOnPanic(t *testing.T) {
	s := &session{table: newTable(1, time.Minute)}
	c := &Client{table: newCallTable(1)}
	steps := map[string][2]func(){
		"session": {
			func() { s.step(func(*table) step { panic("transition") }) },
			func() { s.step(func(t *table) step { return t.tick(at(0)) }) },
		},
		"client": {
			func() { c.step(func(*callTable) callStep { panic("transition") }) },
			func() { c.step(func(t *callTable) callStep { return t.end(1) }) },
		},
	}
	for name, pair := range steps {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: the transition's panic did not reach its caller", name)
				}
			}()
			pair[0]()
		}()
		done := make(chan struct{})
		go func() {
			defer close(done)
			pair[1]()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: a step after a panicking transition did not finish in 5 s", name)
		}
	}
}

// fromClient is a script's next frame from the client, waiting at most 5 s
// for it.
func (h *harness) fromClient() (*stream.Message, error) {
	ctx, cancel := context.WithTimeout(h.ctx, 5*time.Second)
	defer cancel()
	return h.peer.Recv(ctx)
}

// toClient hands msg to a script's client, waiting at most 5 s for room on
// the edge.
func (h *harness) toClient(msg *stream.Message) error {
	ctx, cancel := context.WithTimeout(h.ctx, 5*time.Second)
	defer cancel()
	return h.peer.Send(ctx, msg)
}

// answer answers the client's round frame msg as the model provider does.
func (h *harness) answer(msg *stream.Message) error {
	frame := msg.Payload.(*roundFrame)
	env, err := FromWire(frame.Env, h.proto.Model.pk)
	if err != nil {
		return err
	}
	env.Req = msg.Seq
	out, _, err := h.proto.Model.ProcessLinearMetered(frame.Round, env, nil)
	if err != nil {
		return err
	}
	w, err := ToWire(out)
	if err != nil {
		return err
	}
	return h.toClient(&stream.Message{Seq: msg.Seq, Payload: &roundFrame{Round: frame.Round, Env: w}})
}

// infer starts an Infer of x under ctx and returns where its error goes.
func (h *harness) infer(ctx context.Context, x *tensor.Dense) chan error {
	done := make(chan error, 1)
	go func() {
		_, err := h.client.Infer(ctx, x)
		done <- err
	}()
	return done
}

// TestClientKeepsSessionAfterAbandonedRequest: the server's error frame for
// a request its caller abandoned — the CodeDeadline answer a session sends
// when the budget ran out while the frame queued — is dropped, and the
// next Infer's frame reaches the server and completes. Two stray replies
// follow the error frame, so its last send returns only once the client
// has handled it.
func TestClientKeepsSessionAfterAbandonedRequest(t *testing.T) {
	s := open(t, opening{proto: true, script: true, opts: ClientOptions{Workers: 1}})
	x := tensor.MustFromSlice([]float64{0.5, -0.25, 1, 0.75}, 4)
	ctx, abandon := context.WithCancel(s.ctx)
	done := s.infer(ctx, x)
	first, err := s.fromClient()
	if err != nil {
		t.Fatal(err)
	}
	abandon()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Infer: %v", err)
	}
	for _, msg := range []*stream.Message{
		{Seq: first.Seq, Err: ErrDeadline},
		{Seq: 99, Payload: &roundFrame{}},
		{Seq: 99, Payload: &roundFrame{}},
	} {
		if err := s.toClient(msg); err != nil {
			t.Fatalf("the client stopped reading after the abandoned request's error frame: %v", err)
		}
	}
	done = s.infer(s.ctx, x)
	for round := 0; round < 2; round++ {
		msg, err := s.fromClient()
		if err != nil {
			t.Fatalf("round %d of the next Infer never reached the server: %v", round, err)
		}
		if err := s.answer(msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("the Infer after the abandoned one: %v", err)
	}
	s.client.Close()
}

// TestClientDeadlineBoundsInfer: with ClientOptions.Deadline 40 ms and a
// server that answers round 0 after 150 ms, Infer returns ErrDeadline
// within the deadline plus 60 ms of slack for scheduling, and round 0
// carried a budget of at most 40 ms.
func TestClientDeadlineBoundsInfer(t *testing.T) {
	const deadline, slack = 40 * time.Millisecond, 60 * time.Millisecond
	s := open(t, opening{proto: true, script: true, opts: ClientOptions{Workers: 1, Deadline: deadline}})
	begin := time.Now()
	done := s.infer(s.ctx, tensor.Zeros(4))
	msg, err := s.fromClient()
	if err != nil {
		t.Fatal(err)
	}
	if ms := msg.Payload.(*roundFrame).DeadlineMS; ms < 1 || ms > deadline.Milliseconds() {
		t.Errorf("round 0 carried DeadlineMS %d, want 1..%d", ms, deadline.Milliseconds())
	}
	served := make(chan error, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		served <- s.answer(msg)
	}()
	err = <-done
	if took := time.Since(begin); took > deadline+slack {
		t.Errorf("Infer returned after %v, want within %v", took, deadline+slack)
	}
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("Infer past its deadline: %v, want ErrDeadline", err)
	}
	if err := <-served; err != nil {
		t.Errorf("the late reply: %v", err)
	}
	s.client.Close()
}

// TestRedialerSendsShedRoundZeroOnce: under a Redialer, an inference whose
// round 0 the server sheds every time is sent ClientOptions.Retry's
// MaxAttempts times in all — the client's round-0 loop is the only one
// that retries a shed — and fails with the shed. Each retry counter moves
// in one loop: two resends and one give-up, no redial.
func TestRedialerSendsShedRoundZeroOnce(t *testing.T) {
	reg := obs.NewRegistry("redial-shed")
	s := open(t, opening{proto: true, script: true, opts: ClientOptions{
		Workers: 1, Registry: reg,
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	}})
	sends := make(chan int, 1)
	go func() {
		n := 0
		defer func() { sends <- n }()
		for {
			msg, err := s.peer.Recv(s.ctx)
			if err != nil {
				return
			}
			n++
			if s.peer.Send(s.ctx, &stream.Message{Seq: msg.Seq, Err: ErrShed}) != nil {
				return
			}
		}
	}()
	dials := 0
	r := NewRedialer(func(context.Context) (*Client, error) {
		if dials++; dials > 1 {
			return nil, errors.New("one session only")
		}
		return s.client, nil
	}, RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}, reg)
	_, err := r.Infer(s.ctx, tensor.Zeros(4))
	if !errors.Is(err, ErrShed) {
		t.Errorf("always-shed inference: %v, want ErrShed", err)
	}
	r.Close()
	if n := <-sends; n != 3 {
		t.Errorf("round 0 sent %d times, want MaxAttempts = 3", n)
	}
	c := reg.Snapshot().Counters
	if c["retry.attempts"] != 2 || c["retry.giveups"] != 1 || c["retry.redials"] != 0 || dials != 1 {
		t.Errorf("retry.attempts %d, retry.giveups %d, retry.redials %d, %d dials; want 2, 1, 0, 1",
			c["retry.attempts"], c["retry.giveups"], c["retry.redials"], dials)
	}
}
