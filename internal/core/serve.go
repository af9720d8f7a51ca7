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

var errServing = errors.New("core: engine is already serving")

// Serve starts the engine's persistent serving runtime: one instrumented
// stream.Pipeline — an encrypt stage followed by alternating linear
// (model-provider) and non-linear (data-provider) stages — that lives
// until Shutdown (or Close). While serving, any number of goroutines may
// call Submit concurrently; the registry exposes "serve.inflight", the
// outcome counters "serve.requests.<outcome>", and the end-to-end
// "serve.latency" histogram. ctx bounds the lifetime of the stage
// goroutines.
func (e *Engine) Serve(ctx context.Context) error {
	e.serveMu.Lock()
	defer e.serveMu.Unlock()
	if e.pipe != nil {
		return errServing
	}
	stages := []stream.Stage{step("encrypt", func(seq uint64, x any) (*protocol.Envelope, error) {
		return e.Protocol.Data.EncryptMetered(seq, x.(*tensor.Dense), nil)
	})}
	for r := 0; r < e.Protocol.Rounds(); r++ {
		stages = append(stages,
			step(fmt.Sprintf("linear-%d", r), func(_ uint64, env any) (*protocol.Envelope, error) {
				out, _, err := e.Protocol.Model.ProcessLinearMetered(r, env.(*protocol.Envelope), nil)
				return out, err
			}),
			step(fmt.Sprintf("nonlinear-%d", r), func(_ uint64, env any) (*protocol.Envelope, error) {
				return e.Protocol.Data.ProcessNonLinearMetered(r, env.(*protocol.Envelope), nil)
			}))
	}
	p, err := stream.NewPipeline(ctx, e.opts.Window, e.reg, stages...)
	if err != nil {
		return err
	}
	e.pipe = p
	e.reg.GaugeFunc("serve.inflight", p.InFlight)
	return nil
}

// step is one protocol step as a pipeline stage: it maps the request's
// payload (its input, then its envelope) to the next envelope.
func step(name string, fn func(seq uint64, payload any) (*protocol.Envelope, error)) stream.Stage {
	return stream.Stage{Name: name, Fn: func(_ context.Context, m *stream.Message) (*stream.Message, error) {
		env, err := fn(m.Seq, m.Payload)
		if err != nil {
			return nil, err
		}
		return &stream.Message{Payload: env}, nil
	}}
}

// Shutdown stops admission, drains in-flight requests, and stops every
// stage goroutine. The engine can Serve again afterwards. It is a no-op
// when the runtime is not up.
func (e *Engine) Shutdown() error {
	e.serveMu.Lock()
	p := e.pipe
	e.pipe = nil
	e.serveMu.Unlock()
	if p == nil {
		return nil
	}
	return p.Close()
}

// Submit runs one inference through the serving runtime, blocking until
// its result is ready, ctx expires, or the runtime shuts down. Safe for
// concurrent use; each caller gets exactly its own result. Every call
// that finds the runtime up is one request of the engine's
// protocol.Lifecycle under the sequence number it reserves from the
// pipeline, the ID its stages key the permutation state by: admitted, run,
// and finished with exactly one outcome. A request that fails inside the pipeline
// returns the stage's *stream.StageError, which wraps the handler's error
// (an input outside the model's input domain fails the encrypt stage with
// the data provider's *protocol.InputRangeError), while other in-flight
// requests proceed undisturbed.
//
// A request the pipeline accepted finishes when it leaves the pipeline,
// on the pipeline's reader and with its real outcome, whether or not
// its submitter is still waiting: a ctx expiry returns at once, while the
// request keeps its window slot and permutation state until then. A
// request that ends before the pipeline accepts it finishes here.
func (e *Engine) Submit(ctx context.Context, x *tensor.Dense) (*tensor.Dense, *stream.Trace, error) {
	e.serveMu.Lock()
	p := e.pipe
	e.serveMu.Unlock()
	if p == nil {
		return nil, nil, ErrNotServing
	}
	seq := p.Reserve()
	req, err := e.life.Admit(seq, "", time.Now())
	if err != nil {
		return nil, nil, err
	}
	f, err := p.Submit(ctx, seq, x, func(m *stream.Message) {
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
