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
// Admit takes the request's admission slot; Finish is the only code that
// gives the slot back, drops the model provider's permutation state for
// the request, and publishes its terminal outcome. A runtime that can end
// a request from more than one goroutine (the session: frame handler,
// janitor, teardown) makes the end exclusive itself, by removing the
// request from its own index before calling Finish.
type Lifecycle struct {
	mp     *ModelProvider
	shed   *Shedder
	log    *obs.Logger
	flight *obs.FlightRecorder
	traces *obs.TraceStore
	slo    *obs.SLOEngine
	// plan is the session's backend assignment as strings, attached to
	// flight records so they join against the span store.
	plan []string

	active atomic.Int64
	// One cumulative and one windowed counter per outcome, indexed by
	// outcome; latency is recorded for completed requests only.
	count       [3]*obs.Counter
	live        [3]*obs.WindowedCounter
	completed   *obs.Counter
	latency     *obs.Histogram
	liveLatency *obs.WindowedHistogram
}

// outcome is a request's terminal classification.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeErr
	outcomeShed
)

func (o outcome) String() string { return [...]string{"ok", "err", "shed"}[o] }

// NewLifecycle binds a lifecycle to the model provider whose per-request
// state it releases and to cfg's admission controller and sinks (Shed,
// Registry, Log, Flight, Traces, SLO — each may be nil). It publishes the
// "requests.active" gauge, "serve.requests.ok" / ".err" / ".shed" and
// "serve.latency" (cumulative and windowed), and "requests.completed".
func NewLifecycle(mp *ModelProvider, cfg SessionConfig) *Lifecycle {
	lc := &Lifecycle{
		mp: mp, shed: cfg.Shed, log: cfg.Log,
		flight: cfg.Flight, traces: cfg.Traces, slo: cfg.SLO,
	}
	for _, k := range mp.BackendPlan() {
		lc.plan = append(lc.plan, string(k))
	}
	reg := cfg.Registry
	reg.GaugeFunc("requests.active", lc.active.Load)
	for o := outcomeOK; o <= outcomeShed; o++ {
		lc.count[o] = reg.Counter("serve.requests." + o.String())
		lc.live[o] = reg.LiveCounter("serve.requests." + o.String())
	}
	lc.completed = reg.Counter("requests.completed")
	lc.latency = reg.Histogram("serve.latency")
	lc.liveLatency = reg.LiveHistogram("serve.latency")
	return lc
}

// Request is one admitted inference between Admit and Finish.
type Request struct {
	// ID keys the model provider's permutation state for the request.
	ID uint64
	// TraceID correlates the outcome's log line and records; empty derives
	// one from ID.
	TraceID string

	// undispatched marks a request admitted before its ID exists (see
	// AdmitUndispatched): the model provider cannot hold state for it, and
	// ID may be another request's, so Finish leaves the provider alone.
	undispatched bool
	started      time.Time
	shedHeld     bool
	// lastSeen and deadline (the absolute point the client's propagated
	// budget runs out; zero means none) are the session janitor's: it
	// evicts on them, under the session lock.
	lastSeen, deadline time.Time
	// spans are the server-side trace segments accumulated so far.
	spans []obs.Segment
}

// Admit starts request id, which arrived at arrived, taking its admission
// slot. An overloaded shedder refuses it: the request is finished as shed
// on the spot and the ErrShed-wrapped error returned.
func (lc *Lifecycle) Admit(id uint64, traceID string, arrived time.Time) (*Request, error) {
	return lc.admit(&Request{ID: id, TraceID: traceID, started: arrived})
}

// AdmitUndispatched is Admit for a runtime that learns a request's ID only
// when it dispatches it — the engine, whose IDs are its pipeline's sequence
// numbers and which must shed before it queues. Dispatched supplies the
// ID; a request that ends before that holds no provider state.
func (lc *Lifecycle) AdmitUndispatched(arrived time.Time) (*Request, error) {
	return lc.admit(&Request{undispatched: true, started: arrived})
}

// Dispatched records the ID an AdmitUndispatched request was dispatched
// under.
func (r *Request) Dispatched(id uint64) { r.ID, r.undispatched = id, false }

func (lc *Lifecycle) admit(req *Request) (*Request, error) {
	lc.active.Add(1)
	//pplint:ignore pairedrelease the slot belongs to the Request (shedHeld) from here on; Finish, which every admitted request reaches exactly once, is its one release
	if err := lc.shed.Acquire(); err != nil {
		lc.Finish(req, err)
		return nil, err
	}
	req.shedHeld = lc.shed != nil
	return req, nil
}

// Finish ends a request with its one terminal outcome — ok for a nil err,
// shed for an admission refusal, err for everything else — and is the only
// place that outcome is published: the outcome counters and latency, the
// shedder's latency window, the SLO engine, the span store, the flight
// recorder and the log. It then releases the admission slot and the model
// provider's permutation state. Call it exactly once per request.
func (lc *Lifecycle) Finish(req *Request, err error) {
	latency := time.Since(req.started)
	o := outcomeOK
	switch {
	case errors.Is(err, ErrShed):
		o = outcomeShed
	case err != nil:
		o = outcomeErr
	}
	lc.count[o].Inc()
	lc.live[o].Inc()
	if o == outcomeOK {
		lc.completed.Inc()
		lc.latency.Observe(latency)
		lc.liveLatency.Observe(latency)
		lc.shed.Observe(latency)
	}
	lc.slo.Observe(latency, err != nil)
	if lc.traces != nil || lc.flight != nil {
		tree := serverTree(req.TraceID, req.ID, req.spans)
		lc.traces.Record(tree, err)
		lc.flight.RecordPlan(tree, lc.plan, err)
	}
	if err != nil {
		lc.logFor(req.TraceID).Warn("request failed", "req", req.ID, "outcome", o.String(), "err", err.Error())
	}
	if req.shedHeld {
		lc.shed.Release()
	}
	if !req.undispatched {
		lc.mp.Forget(req.ID)
	}
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
