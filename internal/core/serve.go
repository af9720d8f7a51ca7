package core

import (
	"context"
	"errors"
	"strconv"
	"sync"

	"ppstream/internal/obs"
	"ppstream/internal/protocol"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// This file is the engine's persistent serving runtime: an in-process
// protocol session shared by any number of concurrent submitters, each
// receiving its own result or error (paper Section V's sustained request
// stream, as opposed to the one-shot batch runs of InferOne).

// ErrNotServing is returned by Submit when Serve has not been called (or
// the runtime has been shut down).
var ErrNotServing = errors.New("core: engine is not serving (call Serve first)")

var errServing = errors.New("core: engine is already serving")

// serving is one Serve's runtime: the client end of the in-process
// session, the session's return, and the Submits still inside it.
type serving struct {
	client   *protocol.Client
	served   chan error
	inflight sync.WaitGroup
}

// Serve starts the engine's persistent serving runtime until Shutdown (or
// Close): a protocol session serving the engine's model provider
// (protocol.ServeSession), which runs each linear round as a stage of the
// paper's staged runtime — a queue of Options.Window frames and one
// goroutine that runs them a frame at a time — and a protocol.Client
// driving its data provider, joined by a pair of in-process edges.
// Options.Window is both sides' window. While serving, any number of
// goroutines may call Submit concurrently; the session publishes its
// metrics — the outcome counters "serve.requests.<outcome>",
// "serve.latency", each round's queue wait "round.<r>.wait" and time
// "round.<r>.linear" — to the engine's registry as
// totals. Nothing reads that registry live, so its live metrics keep no
// trailing window; a caller that wants them calls KeepWindows on Registry()
// or mounts it with obshttp.Serve. ctx bounds the lifetime of the session's
// goroutines.
func (e *Engine) Serve(ctx context.Context) error {
	e.serveMu.Lock()
	defer e.serveMu.Unlock()
	if e.srv != nil {
		return errServing
	}
	// Each edge holds a window of frames, so neither side's sends wait on
	// the other's reads while the window is not full. The session starts
	// first: NewClient waits for its answer to the Hello.
	toModel, toData := stream.NewChannelEdge(e.opts.Window), stream.NewChannelEdge(e.opts.Window)
	srv := &serving{served: make(chan error, 1)}
	go func() {
		srv.served <- protocol.ServeSession(ctx, toModel, toData, e.Protocol.Model, protocol.SessionConfig{
			Factor: e.opts.Factor, Window: e.opts.Window, Registry: e.reg,
			Profile: e.opts.Profile, ClearBoundary: e.opts.ClearBoundary,
		})
	}()
	c, err := protocol.NewClient(ctx, toData, toModel, e.Protocol.Data, protocol.ClientOptions{Window: e.opts.Window, Profile: e.opts.Profile})
	if err != nil {
		// NewClient ended its side of the session, which then returns, if
		// it did not refuse the Hello already.
		return err
	}
	srv.client = c
	e.srv = srv
	return nil
}

// Shutdown stops admission, waits for in-flight Submits, ends the session
// and waits for it. The engine can Serve again afterwards. It is a no-op
// when the runtime is not up.
func (e *Engine) Shutdown() error {
	e.serveMu.Lock()
	srv := e.srv
	e.srv = nil
	e.serveMu.Unlock()
	if srv == nil {
		return nil
	}
	srv.inflight.Wait()
	srv.client.Close()
	return <-srv.served
}

// Submit runs one inference through the serving runtime, blocking until
// its result is ready, ctx expires, or the runtime shuts down. Safe for
// concurrent use; each caller gets exactly its own result. Every request
// is one request of the engine's protocol session, which ends it with
// exactly one outcome. A round the session fails returns the client's
// *protocol.RoundError naming the round, which wraps the session's error
// (errors.Is matches its coded sentinel), and an input outside the
// model's input domain is refused with the data provider's
// *protocol.InputRangeError before anything is sent; other in-flight
// requests proceed undisturbed, also when one's ctx expires
// (protocol.TestSessionStageExpiresInQueue): that submitter gets the ctx
// error at once, and the session ends the request it abandoned (see
// protocol.SessionConfig.IdleTTL).
//
// The trace holds the request's per-stage spans: "encrypt" (its window
// wait and the input encryption), then each round's "linear-<r>" (the
// model provider's kernel, permutation and packing, with the round's queue
// and wire time as its wait) and "nonlinear-<r>".
func (e *Engine) Submit(ctx context.Context, x *tensor.Dense) (*tensor.Dense, *stream.Trace, error) {
	out, tree, err := e.infer(ctx, x)
	return out, stageSpans(tree, e.Protocol.Rounds()), err
}

// infer is Submit returning the client's trace of the request.
func (e *Engine) infer(ctx context.Context, x *tensor.Dense) (*tensor.Dense, *obs.TraceTree, error) {
	e.serveMu.Lock()
	srv := e.srv
	if srv != nil {
		srv.inflight.Add(1)
	}
	e.serveMu.Unlock()
	if srv == nil {
		return nil, nil, ErrNotServing
	}
	defer srv.inflight.Done()
	return srv.client.InferTraced(ctx, x)
}

// stageSpans folds a client trace into Submit's per-stage spans; a nil
// tree (a failed request) folds to nil.
func stageSpans(tree *obs.TraceTree, rounds int) *stream.Trace {
	if tree == nil {
		return nil
	}
	spans := make([]stream.Span, 1+2*rounds)
	spans[0].Stage = "encrypt"
	for r := 0; r < rounds; r++ {
		spans[1+2*r].Stage = "linear-" + strconv.Itoa(r)
		spans[2+2*r].Stage = "nonlinear-" + strconv.Itoa(r)
	}
	for _, s := range tree.Segments {
		switch {
		case s.Round < 0 && s.Name == "queue":
			spans[0].Wait += s.Dur
		case s.Round < 0:
			spans[0].Busy += s.Dur
		case s.Party == "client":
			spans[2+2*s.Round].Busy += s.Dur
		case s.Party == "wire" || s.Name == "queue":
			spans[1+2*s.Round].Wait += s.Dur
		default:
			spans[1+2*s.Round].Busy += s.Dur
		}
	}
	return &stream.Trace{ID: tree.ID, Spans: spans}
}
