package protocol

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppstream/internal/obs"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// TestSessionStagePanicContained: a round whose kernel panics fails only
// the request it was running — the client's call fails with a *RoundError
// naming the round and the panic — and ends that request on the spot, not when the
// janitor or the session's end gets to it: by the time the client sees the
// error, its outcome is published, its gate slot is free and its
// permutation state is gone, so the next request over the same session is
// admitted at once and completes.
func TestSessionStagePanicContained(t *testing.T) {
	var calls atomic.Int64
	boom := func() {
		if calls.Add(1) == 1 {
			panic("boom in round 1")
		}
	}
	reg := obs.NewRegistry("stage-panic")
	gate, err := NewGate(GateConfig{MaxInFlight: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := open(t, opening{proto: true, hooks: map[int]func(){1: boom}, depth: 2,
		cfg: SessionConfig{Registry: reg, Gate: gate, IdleTTL: time.Hour, Window: 2}, opts: ClientOptions{Window: 2}})
	c, own := h.client, h.own.Load()
	x := tensor.MustFromSlice([]float64{0.5, -1, 2, 0.25}, 4)
	_, err = c.Infer(context.Background(), x)
	var roundErr *RoundError
	if !errors.As(err, &roundErr) || roundErr.Round != 1 || !strings.Contains(err.Error(), "boom in round 1") {
		t.Fatalf("request whose round panicked: %v, want a *RoundError for round 1 carrying the panic", err)
	}
	snap := reg.Snapshot()
	own.mu.Lock()
	chains := len(own.state)
	own.mu.Unlock()
	if snap.Gauges["requests.active"] != 0 || snap.Counters["serve.requests.err"] != 1 || chains != 0 {
		t.Errorf("after the panic: requests.active %d, serve.requests.err %d, %d permutation chains; want 0, 1, 0",
			snap.Gauges["requests.active"], snap.Counters["serve.requests.err"], chains)
	}
	got, err := c.Infer(context.Background(), x)
	if err != nil {
		t.Fatalf("the session stopped serving after a panic: %v", err)
	}
	if n := reg.Snapshot().Counters["shed.rejected.total"]; n != 0 {
		t.Errorf("the request after the panic was shed %d times waiting for the panicked one's slot", n)
	}
	want, err := h.proto.Infer(99, x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(want, got, 0) {
		t.Errorf("request after the panic: %v, want %v", got.Data(), want.Data())
	}
}

// TestSessionStageExpiresInQueue: a request whose budget runs out while
// its round-0 frame queues behind another request's round 0 gets its ctx
// error, and the session answers the frame it abandoned with CodeDeadline
// when the stage reaches it. The client drops that answer: the request
// ahead of it and a later one succeed, and the abandoned request reaches
// exactly one err outcome, counted as deadline_expired. The request ahead
// is held inside its round 0 until the abandoned frame's budget is spent
// by the session's own clock, so no measured duration decides the outcome.
func TestSessionStageExpiresInQueue(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free() // a failed check must not leave the session's round 0 held
	var calls atomic.Int64
	hold := func() {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
	}
	reg := obs.NewRegistry("stage-expires")
	c := open(t, opening{proto: true, hooks: map[int]func(){0: hold}, depth: 2,
		cfg: SessionConfig{Registry: reg, IdleTTL: time.Hour, Window: 2}, opts: ClientOptions{Window: 2}}).client
	ctx := context.Background()
	x := tensor.MustFromSlice([]float64{0.5, -1, 2, 0.25}, 4)
	ahead := make(chan error, 1)
	go func() {
		_, err := c.Infer(ctx, x)
		ahead <- err
	}()
	<-entered

	// The session stamps the abandoned frame's deadline at its arrival,
	// which is before its admission shows in requests.active: once that
	// gauge reads 2, the deadline is at most budget away.
	const budget = 200 * time.Millisecond
	abandoned := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(ctx, budget)
		defer cancel()
		_, err := c.Infer(ctx, x)
		abandoned <- err
	}()
	for reg.Snapshot().Gauges["requests.active"] < 2 {
		select {
		case err := <-abandoned:
			t.Fatalf("the abandoned request ended before the session admitted it: %v", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(budget + time.Millisecond)
	if err := <-abandoned; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("request whose budget ran out in the queue: %v, want its ctx error", err)
	}
	free()
	if err := <-ahead; err != nil {
		t.Fatalf("the request ahead of the abandoned one: %v", err)
	}
	if _, err := c.Infer(ctx, x); err != nil {
		t.Fatalf("a request after the abandoned one: %v", err)
	}
	snap := reg.Snapshot()
	if ok, failed := snap.Counters["serve.requests.ok"], snap.Counters["serve.requests.err"]; ok != 2 || failed != 1 || snap.Counters["requests.deadline_expired"] != 1 {
		t.Errorf("outcomes ok %d, err %d, deadline_expired %d; want 2, 1, 1", ok, failed, snap.Counters["requests.deadline_expired"])
	}
}

// roundBudget is a client's edge to the server that sends every round-1
// frame with a budget of one millisecond.
type roundBudget struct{ stream.Edge }

func (e roundBudget) Send(ctx context.Context, m *stream.Message) error {
	if f, ok := m.Payload.(*roundFrame); ok && f.Round == 1 {
		short := *f
		short.DeadlineMS = 1
		m = &stream.Message{Seq: m.Seq, Payload: &short}
	}
	return e.Edge.Send(ctx, m)
}

// TestSessionStageFailureReachesClient: a round that fails on the server
// with a coded cause — here the janitor finds the request's budget spent
// while round 1 runs — fails the client's Infer with a *RoundError naming
// round 1 whose cause still matches the sentinel, over channel edges and
// over TCP: the client's call table, not the reply, says which round
// failed.
func TestSessionStageFailureReachesClient(t *testing.T) {
	for _, transport := range []string{"channel", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			reg := obs.NewRegistry(t.Name())
			evicted := func() {
				for end := time.Now().Add(10 * time.Second); reg.Snapshot().Counters["requests.deadline_evicted"] == 0 && time.Now().Before(end); {
					time.Sleep(time.Millisecond)
				}
			}
			h := open(t, opening{tcp: transport == "tcp", proto: true, hooks: map[int]func(){1: evicted},
				cfg: SessionConfig{Registry: reg, IdleTTL: time.Second}, sends: func(e stream.Edge) stream.Edge { return roundBudget{e} }})
			c := h.client
			_, err := c.Infer(h.ctx, tensor.MustFromSlice([]float64{0.5, -1, 2, 0.25}, 4))
			var roundErr *RoundError
			if !errors.As(err, &roundErr) || roundErr.Round != 1 || !errors.Is(err, ErrDeadline) {
				t.Errorf("request whose round 1 outlived its budget: %v, want a *RoundError for round 1 matching ErrDeadline", err)
			}
			c.Close()
			if err := h.wait(); err != nil {
				t.Errorf("session: %v", err)
			}
		})
	}
}

// TestSessionStagesOverlap: each linear round is one stage that runs one
// frame at a time, while requests in different rounds run at once — the
// pipeline parallelism of the paper's staged runtime.
func TestSessionStagesOverlap(t *testing.T) {
	var (
		mu              sync.Mutex
		running         [2]int
		sameRound, both bool
	)
	hooks := map[int]func(){}
	for r := range running {
		hooks[r] = func() {
			mu.Lock()
			running[r]++
			sameRound = sameRound || running[r] > 1
			both = both || running[1-r] > 0
			mu.Unlock()
			time.Sleep(20 * time.Millisecond)
			mu.Lock()
			running[r]--
			mu.Unlock()
		}
	}
	c := open(t, opening{proto: true, hooks: hooks, depth: 4,
		cfg: SessionConfig{Registry: obs.NewRegistry("stage-overlap"), Window: 4}, opts: ClientOptions{Window: 4}}).client
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Infer(context.Background(), tensor.MustFromSlice([]float64{1, 0, -1, 0.5}, 4)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if sameRound {
		t.Error("a round ran two frames at once")
	}
	if !both {
		t.Error("no two requests ever ran in different rounds at once")
	}
}

// TestServeSessionRefusesForeignKey: a session serving a given model
// provider answers a Hello carrying another key with an error frame and
// ends, and the client's NewClient fails with that refusal.
func TestServeSessionRefusesForeignKey(t *testing.T) {
	h, err := dial(t, opening{proto: true, key: keyOfBits(t, 512)})
	if !errors.Is(err, ErrRefused) || !strings.Contains(err.Error(), "not the served model provider's key") {
		t.Errorf("client of the refused session: %v, want the refusal", err)
	}
	if err := h.wait(); err == nil || !strings.Contains(err.Error(), "not the served model provider's key") {
		t.Errorf("session on a foreign key: %v, want the key refusal", err)
	}
}
