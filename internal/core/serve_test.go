package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"ppstream/internal/protocol"
	"ppstream/internal/tensor"
)

func serveEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := NewEngine(smallNet(t), key(t), Options{Factor: 1000, ProfileReps: 1, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestEngineServeConcurrentSubmitters: N goroutines share the persistent
// runtime; each gets its own correct result.
func TestEngineServeConcurrentSubmitters(t *testing.T) {
	eng := serveEngine(t)
	net := smallNet(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := eng.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.Serve(ctx); err == nil {
		t.Error("double Serve accepted")
	}
	inputs := randInputs(8)
	var wg sync.WaitGroup
	errs := make(chan error, len(inputs))
	for _, x := range inputs {
		x := x
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, trace, err := eng.Submit(ctx, x)
			if err != nil {
				errs <- err
				return
			}
			if trace == nil || len(trace.Spans) == 0 {
				errs <- errors.New("no trace spans")
				return
			}
			want, _ := net.Forward(x)
			if tensor.ArgMax(want) != tensor.ArgMax(out) {
				errs <- errors.New("prediction differs from plaintext")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := eng.Stats()
	if snap.Counters["serve.requests.ok"] != uint64(len(inputs)) {
		t.Errorf("serve.requests.ok = %d, want %d", snap.Counters["serve.requests.ok"], len(inputs))
	}
	if snap.Gauges["serve.inflight"] != 0 {
		t.Errorf("serve.inflight = %d after drain", snap.Gauges["serve.inflight"])
	}
	if err := eng.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Submit(ctx, inputs[0]); !errors.Is(err, ErrNotServing) {
		t.Errorf("submit after shutdown: %v", err)
	}
	// The runtime restarts cleanly.
	if err := eng.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Submit(ctx, inputs[0]); err != nil {
		t.Fatal(err)
	}
}

// TestEngineServeErrorIsolation: a request that fails mid-pipeline
// returns a *RequestError naming the stage while concurrent requests
// complete undisturbed, and the failed request's obfuscation state is
// released.
func TestEngineServeErrorIsolation(t *testing.T) {
	eng := serveEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := eng.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	good := randInputs(3)
	bad := tensor.Zeros(7) // wrong input size: fails the first linear stage
	var wg sync.WaitGroup
	errs := make(chan error, len(good))
	for _, x := range good {
		x := x
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := eng.Submit(ctx, x); err != nil {
				errs <- err
			}
		}()
	}
	_, _, badErr := eng.Submit(ctx, bad)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("good request disturbed: %v", err)
	}
	var reqErr *RequestError
	if !errors.As(badErr, &reqErr) {
		t.Fatalf("bad request error %v (type %T), want *RequestError", badErr, badErr)
	}
	if reqErr.Stage != "linear-0" {
		t.Errorf("failed stage %q, want linear-0", reqErr.Stage)
	}
	if got := eng.Stats().Counters["serve.requests.err"]; got != 1 {
		t.Errorf("serve.requests.err = %d", got)
	}
}

// TestEngineServeSheds: with MaxInFlight 1, a Submit arriving while the
// only slot is held fails fast with a retryable error matching
// protocol.ErrShed — and is counted — instead of queueing; freeing the
// slot admits again.
func TestEngineServeSheds(t *testing.T) {
	eng, err := NewEngine(smallNet(t), key(t), Options{Factor: 1000, ProfileReps: 1, Window: 8, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := eng.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	x := randInputs(1)[0]
	// Occupy the only slot as a stand-in for a long-running request.
	if err := eng.shed.Acquire(); err != nil {
		t.Fatal(err)
	}
	_, _, err = eng.Submit(ctx, x)
	if !errors.Is(err, protocol.ErrShed) {
		t.Fatalf("submit over the in-flight bound: %v, want ErrShed", err)
	}
	if !protocol.Retryable(err) {
		t.Error("shed rejection must be retryable")
	}
	if got := eng.Stats().Counters["serve.requests.shed"]; got != 1 {
		t.Errorf("serve.requests.shed = %d", got)
	}
	eng.shed.Release()
	if _, _, err := eng.Submit(ctx, x); err != nil {
		t.Fatalf("submit after slot freed: %v", err)
	}
	// The shedder survives a Shutdown/Serve cycle (its latency window and
	// gauge registration are engine-scoped, not per-Serve).
	if err := eng.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Submit(ctx, x); err != nil {
		t.Fatalf("submit after restart: %v", err)
	}
}

// TestInferStreamPartialFailure: one bad input fails only its own slot;
// the batch completes and reports the per-request error.
func TestInferStreamPartialFailure(t *testing.T) {
	eng := serveEngine(t)
	net := smallNet(t)
	inputs := randInputs(5)
	inputs[2] = tensor.Zeros(9) // wrong size
	results, stats, err := eng.InferStream(context.Background(), inputs)
	if err != nil {
		t.Fatalf("batch-level error for a per-request failure: %v", err)
	}
	if stats.Failed != 1 {
		t.Errorf("Failed = %d, want 1", stats.Failed)
	}
	var reqErr *RequestError
	if !errors.As(stats.Errors[2], &reqErr) || reqErr.Stage != "linear-0" {
		t.Errorf("slot 2 error %v", stats.Errors[2])
	}
	if results[2] != nil {
		t.Error("failed slot has a result")
	}
	for i, x := range inputs {
		if i == 2 {
			continue
		}
		if stats.Errors[i] != nil || results[i] == nil {
			t.Fatalf("slot %d: err=%v result=%v", i, stats.Errors[i], results[i])
		}
		want, _ := net.Forward(x)
		if tensor.ArgMax(want) != tensor.ArgMax(results[i]) {
			t.Errorf("slot %d prediction differs", i)
		}
	}
}

// TestInferStreamLeaksNoGoroutines: repeated ephemeral batch runs
// (including ones with failures) leave no stage goroutines behind —
// the leak the old early-return paths had.
func TestInferStreamLeaksNoGoroutines(t *testing.T) {
	eng := serveEngine(t)
	inputs := randInputs(2)
	inputs = append(inputs, tensor.Zeros(3)) // one failing request per batch
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if _, _, err := eng.InferStream(context.Background(), inputs); err != nil {
			t.Fatal(err)
		}
	}
	// Allow stage goroutines a moment to exit after Shutdown returns.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d after ephemeral batches", before, runtime.NumGoroutine())
}

// TestEngineSubmitRefusesOutOfRangeInput: an input outside the model's
// declared domain gets its one terminal outcome — the data provider's
// typed *protocol.InputRangeError, counted as a failed request — before
// the runtime spends anything on it: no shed slot or window permit is held
// afterwards (both are 1 here, so a leak would fail the next request), no
// stage ran (so no permutation state exists to leak), and the engine keeps
// serving. The sequential walk refuses the same input the same way.
func TestEngineSubmitRefusesOutOfRangeInput(t *testing.T) {
	net := smallNet(t)
	net.InputMax = 3
	eng, err := NewEngine(net, key(t), Options{Factor: 1000, ProfileReps: 1, Window: 1, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := eng.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	ran := func() uint64 { return eng.Stats().Histograms["stage.encrypt.busy"].Count }
	before := ran()
	for i, bad := range []*tensor.Dense{
		tensor.MustFromSlice([]float64{0, 0, 3.5, 0}, 4),
		tensor.MustFromSlice([]float64{0, 0, math.NaN(), 0}, 4),
		tensor.MustFromSlice([]float64{0, 0, math.Inf(-1), 0}, 4),
	} {
		_, trace, err := eng.Submit(ctx, bad)
		var rangeErr *protocol.InputRangeError
		if !errors.As(err, &rangeErr) || rangeErr.Index != 2 || rangeErr.Max != 3 {
			t.Fatalf("Submit(out of domain %d) = %v, want an *InputRangeError for element 2", i, err)
		}
		if trace != nil {
			t.Error("a refused request produced a trace")
		}
		if _, _, err := eng.InferOne(uint64(100+i), bad); !errors.As(err, &rangeErr) {
			t.Errorf("InferOne(out of domain %d) = %v, want an *InputRangeError", i, err)
		}
	}
	snap := eng.Stats()
	if snap.Counters["serve.requests.err"] != 3 || snap.Gauges["serve.inflight"] != 0 || ran() != before {
		t.Errorf("after 3 refused requests: %d counted, %d in flight, %d reached the encrypt stage",
			snap.Counters["serve.requests.err"], snap.Gauges["serve.inflight"], ran()-before)
	}
	if _, _, err := eng.Submit(ctx, tensor.MustFromSlice([]float64{3, -3, 0.5, 0}, 4)); err != nil {
		t.Fatalf("in-domain request after refused ones: %v", err)
	}
	if ran() != before+1 {
		t.Errorf("the in-domain request ran the encrypt stage %d times", ran()-before)
	}
}

// TestEngineSubmitEarlyEndsSpareRequestZero: a Submit that ends before the
// pipeline accepts it — shed, or refused for its input — has no request ID
// yet, so finishing it must not drop the permutation state of the request
// that holds ID 0, the first one after every Serve.
func TestEngineSubmitEarlyEndsSpareRequestZero(t *testing.T) {
	net := smallNet(t)
	net.InputMax = 3
	eng, err := NewEngine(net, key(t), Options{Factor: 1000, ProfileReps: 1, Window: 4, MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	good := tensor.MustFromSlice([]float64{3, -3, 0.5, 0}, 4)
	bad := tensor.MustFromSlice([]float64{0, 0, 3.5, 0}, 4)
	for trial := 0; trial < 10; trial++ {
		if err := eng.Serve(ctx); err != nil {
			t.Fatal(err)
		}
		// Four submitters of a refused input against two admission slots:
		// each attempt ends early, as err when it gets a slot and as shed
		// when it does not, and none is ever dispatched — ID 0 is the good
		// request's.
		stop := make(chan struct{})
		var early sync.WaitGroup
		for g := 0; g < 4; g++ {
			early.Add(1)
			go func() {
				defer early.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					var rangeErr *protocol.InputRangeError
					if _, _, err := eng.Submit(ctx, bad); !errors.As(err, &rangeErr) && !errors.Is(err, protocol.ErrShed) {
						t.Errorf("refused input: %v", err)
						return
					}
				}
			}()
		}
		_, _, err := eng.Submit(ctx, good)
		for errors.Is(err, protocol.ErrShed) {
			_, _, err = eng.Submit(ctx, good)
		}
		close(stop)
		early.Wait()
		if err != nil {
			t.Fatalf("trial %d: request 0 among early-ending submits: %v", trial, err)
		}
		if err := eng.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineSubmitAbandoned: a submitter whose ctx is cancelled while its
// request is inside the pipeline gets the ctx error at once, but the
// request still reaches exactly one outcome — its real one, when it leaves
// the pipeline — and only then gives back the one admission slot.
func TestEngineSubmitAbandoned(t *testing.T) {
	eng, err := NewEngine(smallNet(t), key(t), Options{Factor: 1000, ProfileReps: 1, Window: 8, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := eng.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	subCtx, abandon := context.WithCancel(ctx)
	go func() {
		for eng.Stats().Gauges["serve.inflight"] == 0 && subCtx.Err() == nil {
			runtime.Gosched()
		}
		abandon()
	}()
	x := randInputs(1)[0]
	_, _, subErr := eng.Submit(subCtx, x)
	abandon()
	if subErr != nil && !errors.Is(subErr, context.Canceled) {
		t.Fatalf("abandoned submit: %v", subErr)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := eng.Stats()
		if snap.Counters["serve.requests.ok"] == 1 && snap.Gauges["requests.active"] == 0 && eng.shed.InFlight() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned request never finished ok: %d ok, %d err, %d active, %d slots held",
				snap.Counters["serve.requests.ok"], snap.Counters["serve.requests.err"],
				snap.Gauges["requests.active"], eng.shed.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := eng.Submit(ctx, x); err != nil {
		t.Fatalf("submit after the abandoned request finished: %v", err)
	}
}
