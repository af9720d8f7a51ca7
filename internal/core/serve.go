package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ppstream/internal/protocol"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// This file is the engine's persistent serving runtime: one long-lived
// instrumented pipeline shared by any number of concurrent submitters,
// each receiving its own result or error (paper Section V's sustained
// request stream, as opposed to the one-shot batch runs of InferOne).

// RequestError is one request's failure inside the serving pipeline. The
// batch and the other in-flight requests are unaffected (fault
// containment); Stage names the pipeline stage whose handler failed.
type RequestError struct {
	Seq   uint64
	Stage string
	Msg   string
}

// Error implements error.
func (e *RequestError) Error() string {
	if e.Stage != "" {
		return fmt.Sprintf("core: request %d failed at stage %s: %s", e.Seq, e.Stage, e.Msg)
	}
	return fmt.Sprintf("core: request %d failed: %s", e.Seq, e.Msg)
}

// ErrNotServing is returned by Submit when Serve has not been called (or
// the runtime has been shut down).
var ErrNotServing = errors.New("core: engine is not serving (call Serve first)")

// Serve starts the engine's persistent serving runtime: it builds one
// instrumented pipeline and a completion dispatcher that lives until
// Shutdown (or Close). While serving, any number of goroutines may call
// Submit concurrently; the registry exposes "serve.inflight",
// "serve.requests.ok" / "serve.requests.err" / "serve.requests.shed",
// and the end-to-end "serve.latency" histogram. ctx bounds the lifetime
// of the stage goroutines.
//
// When Options.MaxInFlight or ShedLatency is set, an admission
// controller fronts Submit: excess or overload-era requests fail fast
// with a retryable error matching protocol.ErrShed instead of queueing
// behind work the runtime cannot finish in time.
func (e *Engine) Serve(ctx context.Context) error {
	e.serveMu.Lock()
	defer e.serveMu.Unlock()
	if e.disp != nil {
		return errors.New("core: engine is already serving")
	}
	p, err := e.Pipeline()
	if err != nil {
		return err
	}
	d, err := stream.NewDispatcher(ctx, p, e.opts.Window)
	if err != nil {
		return err
	}
	e.disp = d
	if e.shed == nil && (e.opts.MaxInFlight > 0 || e.opts.ShedLatency > 0) {
		// Built once and kept across Serve/Shutdown cycles: the latency
		// window it accumulates stays meaningful, and GaugeFunc must not
		// be registered twice.
		e.shed = protocol.NewShedder(protocol.ShedConfig{
			MaxInFlight:   int64(e.opts.MaxInFlight),
			LatencyTarget: e.opts.ShedLatency,
			Registry:      e.reg,
		})
	}
	e.reg.GaugeFunc("serve.inflight", d.InFlight)
	return nil
}

// Serving reports whether the persistent runtime is up.
func (e *Engine) Serving() bool {
	e.serveMu.Lock()
	defer e.serveMu.Unlock()
	return e.disp != nil
}

// Shutdown stops admission, drains in-flight requests, and stops every
// stage goroutine. The engine can Serve again afterwards. It is a no-op
// when the runtime is not up.
func (e *Engine) Shutdown() error {
	e.serveMu.Lock()
	d := e.disp
	e.disp = nil
	e.serveMu.Unlock()
	if d == nil {
		return nil
	}
	return d.Close()
}

// Submit runs one inference through the serving runtime, blocking until
// its result is ready, ctx expires, or the runtime shuts down. Safe for
// concurrent use; each caller gets exactly its own result. A request
// that fails inside the pipeline returns a *RequestError naming the
// failing stage, while other in-flight requests proceed undisturbed. An
// input outside the model's input domain is refused up front with the
// data provider's *protocol.InputRangeError: it takes no shed slot or
// window permit and never reaches a stage.
func (e *Engine) Submit(ctx context.Context, x *tensor.Dense) (*tensor.Dense, *stream.Trace, error) {
	e.serveMu.Lock()
	d, shed := e.disp, e.shed
	e.serveMu.Unlock()
	if d == nil {
		return nil, nil, ErrNotServing
	}
	// Cumulative counters answer "since boot"; the live siblings answer
	// "right now" for /debug/live and ppbench top's rate columns.
	countErr := func() {
		e.reg.Counter("serve.requests.err").Inc()
		e.reg.LiveCounter("serve.requests.err").Inc()
	}
	if err := e.Protocol.Data.CheckInput(x); err != nil {
		countErr()
		return nil, nil, err
	}
	if err := shed.Acquire(); err != nil {
		e.reg.Counter("serve.requests.shed").Inc()
		e.reg.LiveCounter("serve.requests.shed").Inc()
		return nil, nil, err
	}
	defer shed.Release()
	start := time.Now()
	m, err := d.Do(ctx, x)
	if err != nil {
		countErr()
		return nil, nil, err
	}
	elapsed := time.Since(start)
	shed.Observe(elapsed)
	e.reg.Histogram("serve.latency").Observe(elapsed)
	e.reg.LiveHistogram("serve.latency").Observe(elapsed)
	if m.Err != "" {
		countErr()
		// The failed message skipped the remaining stages, including the
		// final one that drops the request's obfuscation state — release
		// it here so failed requests do not leak permutations.
		e.Protocol.Model.Forget(m.Seq)
		return nil, m.Trace, &RequestError{Seq: m.Seq, Stage: m.FailedStage, Msg: m.Err}
	}
	env, ok := m.Payload.(*protocol.Envelope)
	if !ok || env.Result == nil {
		countErr()
		return nil, m.Trace, &RequestError{Seq: m.Seq, Msg: fmt.Sprintf("no result in payload %T", m.Payload)}
	}
	e.reg.Counter("serve.requests.ok").Inc()
	e.reg.LiveCounter("serve.requests.ok").Inc()
	return env.Result, m.Trace, nil
}
