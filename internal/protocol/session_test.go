package protocol

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	mathrand "math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// TestSessionTableIsPlain: the files of the session's request table and
// of the client's call table read no clock, start no goroutine and import
// no sync package, so every transition is a function of its arguments and
// a test can step it with a fake clock.
func TestSessionTableIsPlain(t *testing.T) {
	for _, name := range []string{"session.go", "calls.go"} {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		timeName := ""
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "sync" || strings.HasPrefix(path, "sync/") {
				t.Errorf("%s: %s imports %s", fset.Position(imp.Pos()), name, path)
			}
			if path == "time" {
				timeName = "time"
				if imp.Name != nil {
					timeName = imp.Name.Name
				}
			}
		}
		clock := map[string]bool{"Now": true, "Since": true, "Until": true, "NewTicker": true,
			"NewTimer": true, "After": true, "AfterFunc": true, "Tick": true, "Sleep": true}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: %s starts a goroutine", fset.Position(n.Pos()), name)
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == timeName && clock[n.Sel.Name] {
					t.Errorf("%s: %s calls time.%s", fset.Position(n.Pos()), name, n.Sel.Name)
				}
			}
			return true
		})
	}
}

// t0 is the fake clock's start.
var t0 = time.Unix(1_000_000, 0)

// at is the fake clock ms milliseconds after t0.
func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

// openAt admits request id into tb at now with budget, round 0 dispatched.
func openAt(t *testing.T, tb *table, now time.Time, id uint64, budget time.Duration) {
	t.Helper()
	f := &roundFrame{DeadlineMS: budget.Milliseconds()}
	if st := tb.arrive(now, id, f); !st.admit {
		t.Fatalf("round 0 of new request %d: %+v, want the gate", id, st)
	}
	if st := tb.admit(now, id, f, nil); st.err != nil || len(st.end) != 0 {
		t.Fatalf("admitting request %d: %+v", id, st)
	}
}

// ended checks that st ends exactly request id, with a cause matching want
// (nil: served).
func ended(t *testing.T, st step, id uint64, want error) {
	t.Helper()
	if len(st.end) != 1 || st.end[0].id != id {
		t.Fatalf("step ends %+v, want request %d alone", st.end, id)
	}
	if cause := st.end[0].cause; (want == nil) != (cause == nil) || (want != nil && !errors.Is(cause, want)) {
		t.Fatalf("request %d ended with %v, want %v", id, cause, want)
	}
}

// TestSessionTableEvictsMidRound: a request whose deadline passes while its
// round runs is not let go of until the round returns, so the round's last
// write to its permutation state comes before the end that drops it. The
// round's reply is then replaced by ErrDeadline, the eviction is counted
// once, and a later frame for the request is stale.
func TestSessionTableEvictsMidRound(t *testing.T) {
	tb := newTable(2, time.Minute)
	openAt(t, &tb, at(0), 1, 5*time.Millisecond)
	if st := tb.start(at(1), 1); st.err != nil || len(st.end) != 0 {
		t.Fatalf("round 0 start: %+v", st)
	}
	st := tb.tick(at(10))
	if len(st.end) != 0 || len(st.count) != 1 || st.count[0] != "requests.deadline_evicted" {
		t.Fatalf("tick past the deadline mid-round: %+v, want the eviction counted and no end yet", st)
	}
	if st := tb.tick(at(20)); len(st.end) != 0 || len(st.count) != 0 {
		t.Fatalf("second tick mid-round: %+v, want nothing", st)
	}
	st = tb.done(at(30), 1, []obs.Segment{{Name: "kernel"}}, nil)
	if !errors.Is(st.err, ErrDeadline) {
		t.Fatalf("round's reply replaced by %v, want ErrDeadline", st.err)
	}
	ended(t, st, 1, ErrDeadline)
	if spans := st.end[0].spans; len(spans) != 1 {
		t.Errorf("ended request carries %d spans, want its round's one", len(spans))
	}
	if len(tb.live) != 0 {
		t.Errorf("%d requests live after the end", len(tb.live))
	}
	st = tb.arrive(at(40), 1, &roundFrame{Round: 1})
	if !errors.Is(st.err, ErrEvicted) || len(st.count) != 1 || st.count[0] != "requests.stale_rounds" {
		t.Errorf("round 1 after the end: %+v, want a stale ErrEvicted", st)
	}
}

// TestSessionTableTickAndDoneAtOnce: a tick past a request's deadline and
// its round returning at the same instant end the request once, whichever
// the shell runs first. The outcome follows the order: a tick first
// evicts, and the reply says so; a last round first serves the request.
func TestSessionTableTickAndDoneAtOnce(t *testing.T) {
	for _, rounds := range []int{1, 2} {
		for _, tickFirst := range []bool{true, false} {
			tb := newTable(rounds, time.Minute)
			openAt(t, &tb, at(0), 1, 5*time.Millisecond)
			tb.start(at(1), 1)
			var ends []*request
			var reply error
			if tickFirst {
				ends = append(ends, tb.tick(at(6)).end...)
			}
			st := tb.done(at(6), 1, nil, nil)
			ends, reply = append(ends, st.end...), st.err
			if !tickFirst {
				ends = append(ends, tb.tick(at(6)).end...)
			}
			if len(ends) != 1 || len(tb.live) != 0 {
				t.Fatalf("%d rounds, tick first %v: %d ends, %d live; want 1, 0", rounds, tickFirst, len(ends), len(tb.live))
			}
			served := rounds == 1 && !tickFirst
			if cause := ends[0].cause; served != (cause == nil) || (!served && !errors.Is(cause, ErrDeadline)) {
				t.Errorf("%d rounds, tick first %v: ended with %v", rounds, tickFirst, cause)
			}
			if wantReply := tickFirst; wantReply != errors.Is(reply, ErrDeadline) {
				t.Errorf("%d rounds, tick first %v: reply replaced by %v", rounds, tickFirst, reply)
			}
		}
	}
	// At the deadline itself the budget is not yet spent.
	tb := newTable(2, time.Minute)
	openAt(t, &tb, at(0), 1, 5*time.Millisecond)
	tb.start(at(1), 1)
	if st := tb.tick(at(5)); len(st.count) != 0 {
		t.Errorf("tick at the deadline: %+v, want nothing", st)
	}
}

// TestSessionTableCloseWithLive: closing the table ends every live request
// once — between rounds, dispatched to a stage that stopped before running
// it, or with a cause pending — each with ErrSessionDown unless a cause was
// already decided.
func TestSessionTableCloseWithLive(t *testing.T) {
	tb := newTable(3, time.Minute)
	openAt(t, &tb, at(0), 1, 0)
	tb.start(at(1), 1)
	tb.done(at(2), 1, nil, nil) // between rounds
	openAt(t, &tb, at(3), 2, 0) // dispatched, never started
	openAt(t, &tb, at(4), 3, 5*time.Millisecond)
	tb.start(at(5), 3)
	tb.tick(at(20)) // request 3's deadline passes mid-round
	st := tb.close()
	causes := map[uint64]error{}
	for _, e := range st.end {
		causes[e.id] = e.cause
	}
	if len(st.end) != 3 || len(causes) != 3 || len(tb.live) != 0 {
		t.Fatalf("close ended %d (%d distinct), %d left live; want 3, 3, 0", len(st.end), len(causes), len(tb.live))
	}
	for id, want := range map[uint64]error{1: ErrSessionDown, 2: ErrSessionDown, 3: ErrDeadline} {
		if !errors.Is(causes[id], want) {
			t.Errorf("request %d closed with %v, want %v", id, causes[id], want)
		}
	}
	if st := tb.close(); len(st.end) != 0 {
		t.Errorf("closing again ends %d more", len(st.end))
	}
}

// TestSessionTableRefusesOutOfOrder: a frame of a live request for another
// round than the one it expects, or while its round runs, is refused with
// ErrBadRound and ends the request: at once between rounds, and when the
// running round returns otherwise. Frames naming no round create nothing.
func TestSessionTableRefusesOutOfOrder(t *testing.T) {
	tb := newTable(3, time.Minute)
	for _, round := range []int{-1, 3} {
		if st := tb.arrive(at(0), 9, &roundFrame{Round: round}); !errors.Is(st.err, ErrBadRound) || len(tb.live) != 0 {
			t.Errorf("round %d: %+v, %d live", round, st, len(tb.live))
		}
	}
	openAt(t, &tb, at(0), 1, 0)
	st := tb.arrive(at(1), 1, &roundFrame{}) // round 0 again while it runs
	if !errors.Is(st.err, ErrBadRound) || len(st.end) != 0 {
		t.Fatalf("repeated round 0 mid-round: %+v, want ErrBadRound and no end yet", st)
	}
	st = tb.start(at(2), 1)
	if !errors.Is(st.err, ErrBadRound) {
		t.Fatalf("the dispatched round 0 started with %v, want the pending ErrBadRound", st.err)
	}
	ended(t, st, 1, ErrBadRound)

	openAt(t, &tb, at(3), 2, 0)
	tb.start(at(4), 2)
	tb.done(at(5), 2, nil, nil)
	st = tb.arrive(at(6), 2, &roundFrame{Round: 2}) // skips round 1
	if !errors.Is(st.err, ErrBadRound) {
		t.Fatalf("round 2 before round 1: %v, want ErrBadRound", st.err)
	}
	ended(t, st, 2, ErrBadRound)
}

// TestSessionDeadlineMidRound: over TCP, a request whose 5 ms budget runs
// out while its 256→256 round runs (IdleTTL 20 ms, so the janitor ticks
// every 10 ms) reaches exactly one err outcome, its round's reply is the
// typed deadline error, its gate slot is free, and once the session is
// over the model provider holds no permutation state for it.
func TestSessionDeadlineMidRound(t *testing.T) {
	r := mathrand.New(mathrand.NewSource(5))
	wide := network(t, "wide", tensor.Shape{256},
		nn.NewFC("fc1", 256, 256, r), nn.NewReLU("relu1"),
		nn.NewFC("fc2", 256, 2, r), nn.NewSoftMax("softmax"))
	reg := obs.NewRegistry("deadline-mid-round")
	gate, err := NewGate(GateConfig{MaxInFlight: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := open(t, opening{tcp: true, net: wide, proto: true, raw: true, opts: ClientOptions{Workers: 1},
		cfg: SessionConfig{IdleTTL: 20 * time.Millisecond, Gate: gate, Registry: reg}})
	edge := h.edge
	f := h.roundZero(1, tensor.Zeros(256))
	f.DeadlineMS = 5
	h.send(1, f)
	reply, err := edge.Recv(h.ctx)
	if err != nil {
		t.Fatal(err)
	}
	edge.CloseSend()
	if err := h.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
	if slowest := reg.Histogram("round.linear").Snapshot().Max; slowest < 30*time.Millisecond {
		t.Skipf("the round took %v here: too short for a 10 ms janitor tick to land inside it", slowest)
	}
	if got := errCode(reply.Err); got != CodeDeadline {
		t.Errorf("reply to the round the deadline passed in: code %d err %v, want code %d", got, reply.Err, CodeDeadline)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.requests.err"] != 1 || snap.Counters["serve.requests.ok"] != 0 || snap.Counters["requests.deadline_evicted"] != 1 {
		t.Errorf("outcomes ok %d err %d, deadline_evicted %d; want 0, 1, 1",
			snap.Counters["serve.requests.ok"], snap.Counters["serve.requests.err"], snap.Counters["requests.deadline_evicted"])
	}
	if snap.Gauges["shed.inflight"] != 0 || snap.Gauges["requests.active"] != 0 {
		t.Errorf("%d gate slots held, requests.active %d after the session", snap.Gauges["shed.inflight"], snap.Gauges["requests.active"])
	}
	own := h.own.Load()
	own.mu.Lock()
	chains := len(own.state)
	own.mu.Unlock()
	if chains != 0 {
		t.Errorf("model provider holds permutation state for %d requests after the session", chains)
	}
}

// TestSessionsShareActiveGauge: requests.active counts the requests of
// every session that shares a registry. A second, idle session opening
// beside one with a request mid-protocol leaves it at 1, and it returns to
// 0 once that request ends.
func TestSessionsShareActiveGauge(t *testing.T) {
	reg := obs.NewRegistry("shared-active")
	c := open(t, opening{tcp: true, raw: true, cfg: SessionConfig{Registry: reg}})
	last := c.midway(1, 0)
	active := func() int64 { return reg.Snapshot().Gauges["requests.active"] }
	if n := active(); n != 1 {
		t.Fatalf("requests.active %d with one request mid-protocol", n)
	}
	idle := open(t, opening{tcp: true, raw: true, cfg: SessionConfig{Registry: reg}})
	if n := active(); n != 1 {
		t.Errorf("requests.active %d once an idle second session opened, want 1", n)
	}
	idle.edge.CloseSend()
	if err := idle.wait(); err != nil {
		t.Fatalf("second session: %v", err)
	}
	if n := active(); n != 1 {
		t.Errorf("requests.active %d once the idle session closed, want 1", n)
	}
	c.send(1, last)
	c.recv(replyOK)
	if n := active(); n != 0 {
		t.Errorf("requests.active %d after the last request ended, want 0", n)
	}
	c.edge.CloseSend()
	if err := c.wait(); err != nil {
		t.Fatalf("first session: %v", err)
	}
}

// TestSessionOwnsItsPermutations: a session keeps the permutations of its
// requests to itself. Its client numbers requests from 1, as any client
// does, so Infer on the served provider with the same request ID — what
// core.Engine.InferOne does beside a running session — draws and then
// forgets permutations under an ID the session's in-flight request holds.
// The session's request still completes, with the right result.
func TestSessionOwnsItsPermutations(t *testing.T) {
	h := open(t, opening{proto: true, raw: true})
	proto, client, ctx := h.proto, h.edge, h.ctx
	// round sends req's round-r envelope and returns the data provider's
	// step on the reply.
	round := func(r int, env *Envelope) *Envelope {
		t.Helper()
		w, err := ToWire(env)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Send(ctx, &stream.Message{Seq: 1, Payload: &roundFrame{Round: r, Env: w}}); err != nil {
			t.Fatal(err)
		}
		reply, err := client.Recv(ctx)
		if err != nil || reply.Err != nil {
			t.Fatalf("round %d: %v, %v", r, err, reply.Err)
		}
		back, err := FromWire(reply.Payload.(*roundFrame).Env, proto.Model.pk)
		if err != nil {
			t.Fatal(err)
		}
		back.Req = 1
		if back, err = proto.Data.ProcessNonLinearMetered(r, back, nil); err != nil {
			t.Fatal(err)
		}
		return back
	}
	x := tensor.MustFromSlice([]float64{0.5, -1, 2, 0.25}, 4)
	env, err := proto.Data.EncryptMetered(1, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	next := round(0, env)
	want, err := proto.Infer(1, x)
	if err != nil {
		t.Fatal(err)
	}
	if got := round(1, next).Result; !tensor.AllClose(want, got, 0) {
		t.Errorf("session request: %v, want %v", got.Data(), want.Data())
	}
	client.CloseSend()
	if err := h.wait(); err != nil {
		t.Fatalf("session: %v", err)
	}
}
