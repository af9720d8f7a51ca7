package protocol

import (
	"fmt"
	"time"

	"ppstream/internal/stream"
)

// callTable is the client's request table, the mirror of the session's
// (session.go): every Infer call from its opening to its end, and whether
// the session is down. Its shell (client.go) owns the reader goroutine, the
// window, the calls' reply channels, the backoff sleeps and the clock: it
// steps the table under the client's lock and carries out the step outside
// it. The table reads no clock, starts no goroutine and takes no lock
// (TestSessionTableIsPlain).
type callTable struct {
	maxAttempts int   // the most round-0 sends a call makes
	down        error // why the session is down; nil while up
	live        map[uint64]*call
}

// call is one Infer. It waits for round's reply while sent; attempts
// counts its round-0 sends, and reply is its shell's answer channel.
type call struct {
	id       uint64
	deadline time.Time // zero: none
	round    int
	sent     bool
	attempts int
	reply    chan<- answer
}

// answer is the table's decision for a call waiting for a reply: the
// frame, the error the call fails with, or, when retry is not zero, to
// resend round 0 after backoff attempt retry.
type answer struct {
	to    *call
	frame *roundFrame
	err   error
	retry int
}

// callStep is what a transition asks of the shell: count the counters,
// then hand each answer to its call. err fails the calling Infer; from fail
// it is the session's cause.
type callStep struct {
	err     error
	count   []string
	answers []answer
}

// open is call id opening, due by deadline, its answers going to reply.
func (t *callTable) open(id uint64, deadline time.Time, reply chan<- answer) callStep {
	if t.down != nil {
		return callStep{err: t.down}
	}
	t.live[id] = &call{id: id, deadline: deadline, reply: reply}
	return callStep{}
}

// send stamps call id's frame f, about to be sent at now, with what is
// left of the call's budget, at least 1 ms; a spent budget refuses it.
func (t *callTable) send(now time.Time, id uint64, f *roundFrame) callStep {
	if t.down != nil {
		return callStep{err: t.down}
	}
	c := t.live[id]
	if !c.deadline.IsZero() {
		left := c.deadline.Sub(now)
		if left <= 0 {
			return callStep{err: fmt.Errorf("%w: budget spent before round %d", ErrDeadline, f.Round)}
		}
		f.DeadlineMS = max(left.Milliseconds(), 1)
	}
	c.round, c.sent = f.Round, true
	if f.Round == 0 {
		c.attempts++
	}
	return callStep{}
}

// reply is the server's frame msg. A frame for no waiting call is dropped,
// an error frame outside any request included: the session's Hello was
// answered before any call opened. A throttled or shed round 0 is resent
// until maxAttempts sends, then given up. Any other error frame and a reply
// to another round fail the call; any other reply is delivered.
func (t *callTable) reply(msg *stream.Message) callStep {
	c := t.live[msg.Seq]
	if c == nil || !c.sent {
		return callStep{}
	}
	c.sent = false
	if msg.Err != nil {
		rerr := &RoundError{Round: c.round, Err: msg.Err}
		switch {
		case c.round != 0 || !Retryable(rerr):
			return t.settle(c, rerr)
		case c.attempts >= t.maxAttempts:
			return t.settle(c, fmt.Errorf("protocol: retries exhausted: %w", rerr), "retry.giveups")
		}
		return callStep{count: []string{"retry.attempts"}, answers: []answer{{to: c, retry: c.attempts}}}
	}
	frame, ok := msg.Payload.(*roundFrame)
	switch {
	case !ok:
		return t.settle(c, fmt.Errorf("protocol: expected round frame, got %T", msg.Payload))
	case frame.Round != c.round:
		return t.settle(c, fmt.Errorf("%w: request %d round %d got a reply to round %d", ErrBadRound, c.id, c.round, frame.Round))
	}
	return callStep{answers: []answer{{to: c, frame: frame}}}
}

// settle ends call c, failing it with err, and counts count.
func (t *callTable) settle(c *call, err error, count ...string) callStep {
	t.end(c.id)
	return callStep{count: count, answers: []answer{{to: c, err: err}}}
}

// end is call id returning; ending an ended call does nothing.
func (t *callTable) end(id uint64) callStep {
	delete(t.live, id)
	return callStep{}
}

// fail marks the session down with cause, an ErrSessionDown, unless an
// earlier cause stands, and ends every call: one waiting for a reply is
// answered with the cause, the others meet it at their next send.
func (t *callTable) fail(cause error) callStep {
	if t.down == nil {
		t.down = cause
	}
	st := callStep{err: t.down}
	for id, c := range t.live {
		if c.sent {
			st.answers = append(st.answers, answer{to: c, err: t.down})
		}
		delete(t.live, id)
	}
	return st
}
