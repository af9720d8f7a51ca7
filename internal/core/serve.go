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
// concurrent use; each caller gets exactly its own result. Every call
// that finds the runtime up is one request of the engine's
// protocol.Lifecycle under the sequence number it reserves from the
// dispatcher, the ID its stages key the permutation state by: admitted
// (or shed), run, and finished with exactly one outcome. A request that fails inside the pipeline
// returns the stage's *stream.StageError, which wraps the handler's error
// (an input outside the model's input domain fails the encrypt stage with
// the data provider's *protocol.InputRangeError), while other in-flight
// requests proceed undisturbed.
//
// A request the pipeline accepted finishes when it leaves the pipeline,
// on the dispatcher's reader and with its real outcome, whether or not
// its submitter is still waiting: a ctx expiry returns at once, while the
// request keeps its admission slot and permutation state until then. A
// request that ends before the pipeline accepts it finishes here.
func (e *Engine) Submit(ctx context.Context, x *tensor.Dense) (*tensor.Dense, *stream.Trace, error) {
	e.serveMu.Lock()
	d := e.disp
	e.serveMu.Unlock()
	if d == nil {
		return nil, nil, ErrNotServing
	}
	seq := d.Reserve()
	req, err := e.life.Admit(seq, "", time.Now())
	if err != nil {
		return nil, nil, err
	}
	f, err := d.Submit(ctx, seq, x, func(m *stream.Message) {
		_, _, err := result(m)
		e.life.Finish(req, err)
	})
	if err != nil {
		e.life.Finish(req, err)
		return nil, nil, err
	}
	m, err := f.Wait(ctx)
	if err != nil {
		return nil, nil, err
	}
	return result(m)
}

// result reads a message that left the pipeline as its request's outcome.
func result(m *stream.Message) (*tensor.Dense, *stream.Trace, error) {
	if m.Err != nil {
		return nil, m.Trace, m.Err
	}
	env, ok := m.Payload.(*protocol.Envelope)
	if !ok || env.Result == nil {
		return nil, m.Trace, fmt.Errorf("core: request %d left the pipeline without a result (payload %T)", m.Seq, m.Payload)
	}
	return env.Result, m.Trace, nil
}
