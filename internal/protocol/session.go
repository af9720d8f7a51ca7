package protocol

import (
	"fmt"
	"time"

	"ppstream/internal/obs"
)

// table is the session's request table: every request it serves, from its
// round-0 frame to its end. Its shell (serve.go) owns the goroutines, the
// edges, the gate and the clock: it feeds the table each event with the
// time it happened, under the session lock, and carries out the step the
// table returns. The table reads no clock, starts no goroutine and takes no
// lock (TestSessionTableIsPlain).
type table struct {
	rounds int           // the model's linear rounds
	ttl    time.Duration // how long a request may idle between rounds
	live   map[uint64]*request
}

// request is one inference from its admission to its end.
type request struct {
	// id is the request's wire ID (its frames' Seq), which keys the model
	// provider's permutation state for it; traceID, when not empty,
	// correlates its log lines and records.
	id      uint64
	traceID string
	started time.Time
	// next is the round whose frame the request expects. busy marks that
	// frame handed to its round's stage and not yet returned: the round may
	// still write the request's permutation state, so the request cannot
	// end before it returns. cause is why the request ends (nil: served),
	// set early when it is decided while busy.
	next  int
	busy  bool
	cause error
	// lastSeen is the last frame's arrival or round's return; deadline,
	// when not zero, is when the client's propagated budget runs out.
	lastSeen, deadline time.Time
	spans              []obs.Segment
}

// step is what a transition asks of the shell: count the counters in count
// and end the requests in end; then, for the frame at hand, put its new
// request through the gate (admit), answer it with err, or go on.
type step struct {
	admit bool
	err   error
	count []string
	end   []*request
}

func newTable(rounds int, ttl time.Duration) table {
	return table{rounds: rounds, ttl: ttl, live: map[uint64]*request{}}
}

// arrive is round frame f of request id arriving at now. A round the model
// does not have is refused, and so is a later round of an unknown request,
// which is stale: the request ended and its permutation state is gone.
// Round 0 of an unknown request goes to the gate. A live request's frame
// must be the round it expects, while none of its rounds runs; any other
// frame is refused with ErrBadRound and ends the request.
func (t *table) arrive(now time.Time, id uint64, f *roundFrame) step {
	req := t.live[id]
	switch {
	case f.Round < 0 || f.Round >= t.rounds:
		return step{err: fmt.Errorf("%w: round %d outside [0, %d)", ErrBadRound, f.Round, t.rounds)}
	case req == nil && f.Round > 0:
		return step{err: fmt.Errorf("%w: no state for request %d round %d", ErrEvicted, id, f.Round),
			count: []string{"requests.stale_rounds"}}
	case req == nil:
		return step{admit: true}
	case req.busy || f.Round != req.next:
		err := fmt.Errorf("%w: request %d sent round %d out of order", ErrBadRound, id, f.Round)
		return step{err: err, end: t.drop(req, err)}
	}
	t.dispatch(now, req, f)
	return step{}
}

// admit is the gate's answer for the round-0 frame f that arrive sent to
// it: a refused request ends at once, with the refusal as its answer; an
// admitted one goes live with round 0 dispatched.
func (t *table) admit(now time.Time, id uint64, f *roundFrame, refused error) step {
	req := &request{id: id, traceID: f.Trace, started: now, cause: refused}
	if refused != nil {
		return step{err: refused, end: []*request{req}}
	}
	t.live[id] = req
	t.dispatch(now, req, f)
	return step{}
}

// dispatch marks req's frame f handed to its round's stage at now.
func (t *table) dispatch(now time.Time, req *request, f *roundFrame) {
	req.busy, req.lastSeen = true, now
	if f.DeadlineMS > 0 {
		req.deadline = now.Add(time.Duration(f.DeadlineMS) * time.Millisecond)
	}
}

// start is request id's dispatched round starting at now. It runs unless
// the request has a cause to end, or its budget ran out while the frame
// queued; then the request ends, answered with the cause.
func (t *table) start(now time.Time, id uint64) step {
	req := t.live[id]
	var st step
	if req.cause == nil && !req.deadline.IsZero() && now.After(req.deadline) {
		req.cause = fmt.Errorf("%w: request %d budget spent before round %d started", ErrDeadline, id, req.next)
		st.count = []string{"requests.deadline_expired"}
	}
	if req.cause != nil {
		req.busy = false
		st.err, st.end = req.cause, t.drop(req, req.cause)
	}
	return st
}

// done is request id's round returning at now with its spans, or failed
// with err. A cause decided while it ran ends the request and replaces the
// reply; a failure or the last round ends it.
func (t *table) done(now time.Time, id uint64, spans []obs.Segment, err error) step {
	req := t.live[id]
	req.busy, req.lastSeen = false, now
	req.spans = append(req.spans, spans...)
	switch {
	case req.cause != nil:
		return step{err: req.cause, end: t.drop(req, req.cause)}
	case err != nil:
		return step{end: t.drop(req, err)}
	}
	if req.next++; req.next == t.rounds {
		return step{end: t.drop(req, nil)}
	}
	return step{}
}

// tick evicts at now every request past its deadline (ErrDeadline) and
// every one idle between rounds for longer than ttl (ErrEvicted).
func (t *table) tick(now time.Time) step {
	var st step
	for _, req := range t.live {
		switch {
		case req.cause != nil: // decided; ends when its round returns
		case !req.deadline.IsZero() && now.After(req.deadline):
			st.count = append(st.count, "requests.deadline_evicted")
			st.end = append(st.end, t.drop(req, fmt.Errorf("%w: request %d evicted mid-protocol", ErrDeadline, req.id))...)
		case !req.busy && now.Sub(req.lastSeen) > t.ttl:
			st.count = append(st.count, "requests.evicted")
			st.end = append(st.end, t.drop(req, fmt.Errorf("%w: request %d idle for more than %v", ErrEvicted, req.id, t.ttl))...)
		}
	}
	return st
}

// close ends every live request, with its pending cause or ErrSessionDown,
// once the session's round stages have stopped.
func (t *table) close() step {
	var st step
	for _, req := range t.live {
		req.busy = false
		st.end = append(st.end, t.drop(req, fmt.Errorf("%w: session ended with request %d mid-protocol", ErrSessionDown, req.id))...)
	}
	return st
}

// drop ends req with cause, unless an earlier cause stands: at once, or,
// while a round of it runs, once the round returns.
func (t *table) drop(req *request, cause error) []*request {
	if req.cause == nil {
		req.cause = cause
	}
	if req.busy {
		return nil
	}
	delete(t.live, req.id)
	return []*request{req}
}
