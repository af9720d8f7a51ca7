package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	gonet "net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"ppstream/internal/obs"
	"ppstream/internal/obs/obshttp"
	"ppstream/internal/protocol"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

func serveEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := NewEngine(smallNet(t), key(t), Options{Factor: 1000, Window: 8})
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
			if err := oneSpanPerStage(trace, eng.Protocol.Rounds()); err != nil {
				errs <- err
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
	snap := eng.Registry().Snapshot()
	if snap.Counters["serve.requests.ok"] != uint64(len(inputs)) {
		t.Errorf("serve.requests.ok = %d, want %d", snap.Counters["serve.requests.ok"], len(inputs))
	}
	if snap.Gauges["requests.active"] != 0 {
		t.Errorf("requests.active = %d after drain", snap.Gauges["requests.active"])
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

// oneSpanPerStage checks a Submit trace: one span per stage, in order —
// encrypt, then linear-<r> and nonlinear-<r> per round — each with
// non-negative durations and busy time in every linear round.
func oneSpanPerStage(trace *stream.Trace, rounds int) error {
	if trace == nil || len(trace.Spans) != 1+2*rounds {
		return fmt.Errorf("trace %+v, want %d spans", trace, 1+2*rounds)
	}
	for i, sp := range trace.Spans {
		want := "encrypt"
		if i > 0 {
			want = fmt.Sprintf("linear-%d", (i-1)/2)
			if i%2 == 0 {
				want = fmt.Sprintf("nonlinear-%d", (i-1)/2)
			}
		}
		if sp.Stage != want || sp.Wait < 0 || sp.Busy < 0 || (i%2 == 1 && sp.Busy == 0) {
			return fmt.Errorf("span %d is %+v, want stage %s with non-negative durations", i, sp, want)
		}
	}
	return nil
}

// TestEngineServeErrorIsolation: a request whose round fails in the
// session returns the client's *protocol.RoundError naming the round while
// concurrent requests complete undisturbed, and the failed request's
// obfuscation state is released.
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
	var roundErr *protocol.RoundError
	if !errors.As(badErr, &roundErr) {
		t.Fatalf("bad request error %v (type %T), want *protocol.RoundError", badErr, badErr)
	}
	if roundErr.Round != 0 {
		t.Errorf("failed round %d, want 0", roundErr.Round)
	}
	if got := eng.Registry().Snapshot().Counters["serve.requests.err"]; got != 1 {
		t.Errorf("serve.requests.err = %d", got)
	}
}

// TestInferStreamPartialFailure: one bad input fails only its own slot;
// the batch completes and reports the per-request error.
func TestInferStreamPartialFailure(t *testing.T) {
	eng := serveEngine(t)
	net := smallNet(t)
	inputs := randInputs(5)
	inputs[2] = tensor.Zeros(9) // wrong size
	// Refused before anything is sent, so it is the first to finish.
	inputs = append(inputs, tensor.MustFromSlice([]float64{0, math.NaN(), 0, 0}, 4))
	results, stats, err := eng.InferStream(context.Background(), inputs)
	if err != nil {
		t.Fatalf("batch-level error for a per-request failure: %v", err)
	}
	if stats.Failed != 2 {
		t.Errorf("Failed = %d, want 2", stats.Failed)
	}
	var roundErr *protocol.RoundError
	if !errors.As(stats.Errors[2], &roundErr) || roundErr.Round != 0 {
		t.Errorf("slot 2 error %v, want a *RoundError for round 0", stats.Errors[2])
	}
	var rangeErr *protocol.InputRangeError
	if !errors.As(stats.Errors[5], &rangeErr) {
		t.Errorf("slot 5 error %v, want an *InputRangeError", stats.Errors[5])
	}
	if results[2] != nil || results[5] != nil {
		t.Error("failed slot has a result")
	}
	fastest := time.Duration(math.MaxInt64)
	for i, x := range inputs {
		if i == 2 || i == 5 {
			continue
		}
		if stats.Errors[i] != nil || results[i] == nil {
			t.Fatalf("slot %d: err=%v result=%v", i, stats.Errors[i], results[i])
		}
		want, _ := net.Forward(x)
		if tensor.ArgMax(want) != tensor.ArgMax(results[i]) {
			t.Errorf("slot %d prediction differs", i)
		}
		fastest = min(fastest, stats.Traces[i].Total)
	}
	if stats.FirstLatency < fastest {
		t.Errorf("FirstLatency %v is below the fastest successful request's %v: a failed request set it", stats.FirstLatency, fastest)
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
// declared domain is refused with the data provider's typed
// *protocol.InputRangeError before anything is encrypted or sent: the
// session admits no request for it, no window slot is held afterwards (the
// window is 1 here, so a leak would block the next request), the refusal
// meters no Paillier operation, and the engine keeps serving. The
// sequential walk refuses the same input the same way.
func TestEngineSubmitRefusesOutOfRangeInput(t *testing.T) {
	net := smallNet(t)
	net.InputMax = 3
	eng, err := NewEngine(net, key(t), Options{Factor: 1000, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := eng.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	for i, bad := range []*tensor.Dense{
		tensor.MustFromSlice([]float64{0, 0, 3.5, 0}, 4),
		tensor.MustFromSlice([]float64{0, 0, math.NaN(), 0}, 4),
		tensor.MustFromSlice([]float64{0, 0, math.Inf(-1), 0}, 4),
	} {
		_, _, err := eng.Submit(ctx, bad)
		var rangeErr *protocol.InputRangeError
		if !errors.As(err, &rangeErr) || rangeErr.Index != 2 || rangeErr.Max != 3 {
			t.Fatalf("Submit(out of domain %d) = %v, want an *InputRangeError for element 2", i, err)
		}
		// What the client runs on the input, metered.
		var m obs.CostMeter
		if _, err := eng.Protocol.Data.EncryptMetered(uint64(i), bad, &m); !errors.As(err, &rangeErr) {
			t.Errorf("EncryptMetered(out of domain %d) = %v, want an *InputRangeError", i, err)
		}
		if cost := m.Snapshot(); !cost.IsZero() {
			t.Errorf("refusing out-of-domain input %d metered %v", i, &cost)
		}
		if _, _, err := eng.InferOne(uint64(100+i), bad); !errors.As(err, &rangeErr) {
			t.Errorf("InferOne(out of domain %d) = %v, want an *InputRangeError", i, err)
		}
	}
	snap := eng.Registry().Snapshot()
	if snap.Counters["rounds.served"]+snap.Counters["rounds.errors"] != 0 || snap.Gauges["requests.active"] != 0 {
		t.Errorf("after 3 refused requests the session saw %d rounds served, %d failed, %d requests active",
			snap.Counters["rounds.served"], snap.Counters["rounds.errors"], snap.Gauges["requests.active"])
	}
	if _, _, err := eng.Submit(ctx, tensor.MustFromSlice([]float64{3, -3, 0.5, 0}, 4)); err != nil {
		t.Fatalf("in-domain request after refused ones: %v", err)
	}
	if got := eng.Registry().Snapshot().Counters["serve.requests.ok"]; got != 1 {
		t.Errorf("serve.requests.ok = %d after one in-domain request, want 1", got)
	}
}

// TestEngineSubmitEarlyEndsSpareRequestZero: a Submit that ends early —
// given up at the saturated window, or refused for its input before
// anything is sent — must not drop the permutation state of the good
// request submitted among them, the first one after every Serve.
func TestEngineSubmitEarlyEndsSpareRequestZero(t *testing.T) {
	net := smallNet(t)
	net.InputMax = 3
	eng, err := NewEngine(net, key(t), Options{Factor: 1000, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	gaveUp, giveUp := context.WithCancel(ctx)
	giveUp()
	good := tensor.MustFromSlice([]float64{3, -3, 0.5, 0}, 4)
	bad := tensor.MustFromSlice([]float64{0, 0, 3.5, 0}, 4)
	for trial := 0; trial < 10; trial++ {
		if err := eng.Serve(ctx); err != nil {
			t.Fatal(err)
		}
		// Four submitters of a refused input against two window slots, half
		// of them already given up: each attempt ends early, as err when
		// the client refuses it and as its cancelled ctx when it is
		// abandoned, and never holds permutation state.
		stop := make(chan struct{})
		var early sync.WaitGroup
		for g := 0; g < 4; g++ {
			subCtx := ctx
			if g%2 == 0 {
				subCtx = gaveUp
			}
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
					if _, _, err := eng.Submit(subCtx, bad); !errors.As(err, &rangeErr) && !errors.Is(err, context.Canceled) {
						t.Errorf("refused input: %v", err)
						return
					}
				}
			}()
		}
		_, _, err := eng.Submit(ctx, good)
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
// request is inside the session gets the ctx error at once and gives back
// the one window slot, so the next request runs; the abandoned request
// still reaches exactly one outcome — its last round's, or the session's
// end at Shutdown — and no request is left active.
func TestEngineSubmitAbandoned(t *testing.T) {
	eng, err := NewEngine(smallNet(t), key(t), Options{Factor: 1000, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := eng.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	snapshot := eng.Registry().Snapshot
	subCtx, abandon := context.WithCancel(ctx)
	go func() {
		for snapshot().Gauges["requests.active"] == 0 && subCtx.Err() == nil {
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
	if _, _, err := eng.Submit(ctx, x); err != nil {
		t.Fatalf("submit after the abandoned one: %v", err)
	}
	if err := eng.Shutdown(); err != nil {
		t.Fatal(err)
	}
	snap := snapshot()
	if ended := snap.Counters["serve.requests.ok"] + snap.Counters["serve.requests.err"]; ended != 2 || snap.Gauges["requests.active"] != 0 {
		t.Errorf("after shutdown: %d ok, %d err, %d active, want 2 outcomes and none active",
			snap.Counters["serve.requests.ok"], snap.Counters["serve.requests.err"], snap.Gauges["requests.active"])
	}
}

// TestEngineServeShutdownUnderSubmit: Shutdown racing concurrent Submits
// never panics (a Submit sending on the session's closed edge) nor
// deadlocks; every Submit either succeeds or gets ErrNotServing, and once
// Shutdown returns no goroutine of the runtime is left. Run under -race.
func TestEngineServeShutdownUnderSubmit(t *testing.T) {
	eng := serveEngine(t)
	inputs := randInputs(4)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	before := runtime.NumGoroutine()
	for iter := 0; iter < 5; iter++ {
		if err := eng.Serve(ctx); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, x := range inputs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, _, err := eng.Submit(ctx, x); err != nil && !errors.Is(err, ErrNotServing) {
					t.Errorf("submit racing shutdown: %v", err)
				}
			}()
		}
		close(start)
		if err := eng.Shutdown(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines grew from %d to %d across Serve/Shutdown under load", before, n)
	}
}

// TestEngineKeepsOneBlindPool: the engine's model provider has one
// blinding pool from NewEngine to Close. InferOne draws from it before any
// Serve, each session Serve opens reuses it rather than building its own,
// and Shutdown leaves it running for the next InferOne or Serve.
func TestEngineKeepsOneBlindPool(t *testing.T) {
	eng, err := NewEngine(smallNet(t), key(t), Options{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	alive := func() int64 { return eng.Registry().Snapshot().Gauges["pool.workers.alive"] }
	x := randInputs(1)[0]
	if alive() != 1 {
		t.Fatalf("pool.workers.alive %d after NewEngine, want 1", alive())
	}
	if _, _, err := eng.InferOne(1, x); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for range 2 {
		if err := eng.Serve(ctx); err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.Submit(ctx, x); err != nil {
			t.Fatal(err)
		}
		if err := eng.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if alive() != 1 {
			t.Fatalf("pool.workers.alive %d after Shutdown, want the engine's one worker", alive())
		}
	}
	if _, _, err := eng.InferOne(2, x); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if alive() != 0 {
		t.Errorf("pool.workers.alive %d after Close, want 0", alive())
	}
}

// TestEngineRegistryKeepsNoWindows: nothing reads the engine's registry
// live (it is mounted at no /debug/live), so after its session served
// requests the registry holds no window: the outcome counters, the latency,
// the round stages and the per-backend cost counters are declared live and
// count their totals, and their LiveSnapshot is empty.
func TestEngineRegistryKeepsNoWindows(t *testing.T) {
	eng := serveEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := eng.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	const n = 3
	for _, x := range randInputs(n) {
		if _, _, err := eng.Submit(ctx, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Shutdown(); err != nil {
		t.Fatal(err)
	}
	reg := eng.Registry()
	if live := reg.LiveSnapshot(); len(live.Counters) != 0 || len(live.Histograms) != 0 {
		t.Errorf("the engine's unread registry keeps windows: %+v", live)
	}
	if got := reg.Counter("serve.requests.ok").Value(); got != n {
		t.Errorf("serve.requests.ok = %d, want %d", got, n)
	}
}

// TestOneObjectPerLiveMetric: a session whose registry is mounted by
// obshttp.Serve registers its request outcomes, its round stages and its
// cost counters on that registry with their windows; after N requests
// every name /debug/live serves is one object whose total equals its
// trailing-minute count, the windowed and cumulative views being two
// reads of the same writes — N for the outcome and the latency histograms.
func TestOneObjectPerLiveMetric(t *testing.T) {
	const factor = 1000
	net := smallNet(t)
	reg := obs.NewRegistry("served")
	addr, stop, err := obshttp.Serve("127.0.0.1:0", obshttp.Options{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		served <- protocol.Serve(ctx, ln, net, protocol.SessionConfig{Factor: factor, Registry: reg})
	}()
	conn, err := gonet.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	edge := stream.NewTCPEdge(conn)
	client, err := protocol.NewClientOpts(ctx, edge, edge, net, key(t), factor, protocol.ClientOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	for _, x := range randInputs(n) {
		if _, err := client.Infer(ctx, x); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	ln.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/debug/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var live obs.LiveSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
		t.Fatal(err)
	}
	if _, ok := live.Counters["serve.requests.ok"]; !ok || len(live.Histograms) < 2 {
		t.Fatalf("live views %+v: want the outcome counters, serve.latency and every round's busy time", live)
	}
	if w := live.Counters["serve.requests.ok"]; w.Count != n {
		t.Errorf("serve.requests.ok window %d, want %d", w.Count, n)
	}
	for name, w := range live.Counters {
		c := reg.Counter(name)
		if c != reg.LiveCounter(name) || c.Value() != w.Count {
			t.Errorf("%s: total %d, window %d, want one object", name, c.Value(), w.Count)
		}
	}
	for name, w := range live.Histograms {
		h := reg.Histogram(name)
		if h != reg.LiveHistogram(name) || h.Snapshot().Count != w.Count || w.Count != n {
			t.Errorf("%s: total %d, window %d, want one object at %d", name, h.Snapshot().Count, w.Count, n)
		}
	}
}
