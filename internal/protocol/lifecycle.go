package protocol

import (
	"errors"
	"strconv"
	"sync/atomic"
	"time"

	"ppstream/internal/obs"
)

// Lifecycle is the one request state machine every runtime drives — the
// TCP session, core.Engine.Submit and the sequential Protocol.Infer:
//
//	Admit → rounds → exactly one Finish
//
// Admit takes the request's admission slot and counts its start against
// the rate limit; Finish is the only code that gives the slot back, drops
// the model provider's permutation state for the request, and publishes
// its terminal outcome. A runtime that can end
// a request from more than one goroutine (the session: frame handler,
// janitor, teardown) makes the end exclusive itself, by removing the
// request from its own index before calling Finish.
type Lifecycle struct {
	mp    *ModelProvider
	shed  *Shedder
	limit *RateLimiter
	log   *obs.Logger
	// traces and flight are span stores offered every finished request's
	// record alike: flight is the benchmark's (SessionConfig.Flight).
	traces, flight *obs.TraceStore
	slo            *obs.SLOEngine
	// plan is the session's backend assignment as strings, carried on every
	// record so a retained request shows which backend mix produced it.
	plan []string

	active atomic.Int64
	// One live counter per outcome, indexed by outcome; latency is recorded
	// for completed requests only.
	count   [3]*obs.Counter
	latency *obs.Histogram
}

// outcome is a request's terminal classification.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeErr
	// outcomeShed is a refusal at admission, by the shedder or the rate
	// limiter: the request never ran.
	outcomeShed
)

func (o outcome) String() string { return [...]string{"ok", "err", "shed"}[o] }

// NewLifecycle binds a lifecycle to the model provider whose per-request
// state it releases and to cfg's admission controllers and sinks (Shed,
// Limiter, Registry, Log, Traces, Flight, SLO — each may be nil). It
// publishes the "requests.active" gauge and, each with its live view,
// "serve.requests.ok" / ".err" / ".shed" and "serve.latency".
func NewLifecycle(mp *ModelProvider, cfg SessionConfig) *Lifecycle {
	lc := &Lifecycle{
		mp: mp, shed: cfg.Shed, limit: cfg.Limiter, log: cfg.Log,
		traces: cfg.Traces, flight: cfg.Flight, slo: cfg.SLO, plan: mp.labels(),
	}
	reg := cfg.Registry
	reg.GaugeFunc("requests.active", lc.active.Load)
	for o := outcomeOK; o <= outcomeShed; o++ {
		lc.count[o] = reg.LiveCounter("serve.requests." + o.String())
	}
	lc.latency = reg.LiveHistogram("serve.latency")
	return lc
}

// Request is one admitted inference between Admit and Finish.
type Request struct {
	// ID keys the model provider's permutation state for the request.
	ID uint64
	// TraceID correlates the outcome's log line and records; empty derives
	// one from ID.
	TraceID string

	started  time.Time
	shedHeld bool
	// lastSeen and deadline (the absolute point the client's propagated
	// budget runs out; zero means none) are the session janitor's: it
	// evicts on them, under the session lock.
	lastSeen, deadline time.Time
	// spans are the server-side trace segments accumulated so far.
	spans []obs.Segment
}

// Admit starts request id, which arrived at arrived, taking its admission
// slot and counting it against the rate limit. An overloaded shedder or a
// full rate window refuses it: the request is finished as refused on the
// spot, before any per-request state exists, and the ErrShed- or
// ErrThrottled-wrapped error returned.
func (lc *Lifecycle) Admit(id uint64, traceID string, arrived time.Time) (*Request, error) {
	req := &Request{ID: id, TraceID: traceID, started: arrived}
	lc.active.Add(1)
	err := lc.shed.Acquire()
	if err == nil {
		req.shedHeld = lc.shed != nil
		err = lc.limit.admit()
	}
	if err != nil {
		lc.Finish(req, err)
		return nil, err
	}
	return req, nil
}

// Finish ends a request with its one terminal outcome — ok for a nil err,
// shed for an admission refusal (shed or throttled), err for everything
// else — and is the only place that outcome is published: the outcome
// counter and latency, the shedder's latency window, the SLO engine, the
// span stores — one record, tree and plan, each — and the log. It then
// releases the admission slot and the model provider's permutation state.
// Call it exactly once per request.
func (lc *Lifecycle) Finish(req *Request, err error) {
	latency := time.Since(req.started)
	o := outcomeOK
	switch {
	case errors.Is(err, ErrShed), errors.Is(err, ErrThrottled):
		o = outcomeShed
	case err != nil:
		o = outcomeErr
	}
	lc.count[o].Inc()
	if o == outcomeOK {
		lc.latency.Observe(latency)
		lc.shed.Observe(latency)
	}
	lc.slo.Observe(latency, err != nil)
	if lc.traces != nil || lc.flight != nil {
		tree := serverTree(req.TraceID, req.ID, req.spans)
		lc.traces.Record(tree, lc.plan, err)
		lc.flight.Record(tree, lc.plan, err)
	}
	if err != nil {
		lc.logFor(req.TraceID).Warn("request failed", "req", req.ID, "outcome", o.String(), "err", err.Error())
	}
	if req.shedHeld {
		lc.shed.Release()
	}
	lc.mp.Forget(req.ID)
	lc.active.Add(-1)
}

// logFor returns the lifecycle's logger scoped to a request's trace ID,
// when it has one.
func (lc *Lifecycle) logFor(traceID string) *obs.Logger {
	if traceID == "" {
		return lc.log
	}
	return lc.log.WithTrace(traceID)
}

// serverTree assembles the server-side view of one request: the spans
// accumulated so far under the request's trace ID (or a request-derived ID
// for untraced clients), with Total as the server's summed busy time — the
// server cannot know the client's end-to-end latency.
func serverTree(traceID string, req uint64, spans []obs.Segment) *obs.TraceTree {
	if traceID == "" {
		traceID = "req-" + strconv.FormatUint(req, 10)
	}
	tree := &obs.TraceTree{ID: traceID, Segments: spans}
	tree.Total = tree.Sum()
	return tree
}
