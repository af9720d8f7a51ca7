package protocol

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ppstream/internal/obs"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// rawClient drives one raw session by hand: it builds legitimate round
// frames with its own copy of the data-provider role and reads the
// server's replies off the wire.
type rawClient struct {
	t     *testing.T
	s     *session
	edge  stream.Edge
	proto *Protocol
}

func (c *rawClient) send(seq uint64, frame *roundFrame) {
	c.t.Helper()
	if err := c.edge.Send(c.s.ctx, &stream.Message{Seq: seq, Payload: frame}); err != nil {
		c.t.Fatal(err)
	}
}

// replyOK is recv's want for a reply that carries no error.
const replyOK = -1

// recv returns the next reply, which must be an error frame with wire
// code want, or a round reply for replyOK.
func (c *rawClient) recv(want int) *stream.Message {
	c.t.Helper()
	m, err := c.edge.Recv(c.s.ctx)
	if err != nil {
		c.t.Fatal(err)
	}
	if got := errCode(m.Err); (m.Err == nil) != (want == replyOK) || (m.Err != nil && got != want) {
		c.t.Fatalf("reply for request %d: code %d err %v, want code %d", m.Seq, got, m.Err, want)
	}
	return m
}

// roundZero is req's first frame for input x.
func (c *rawClient) roundZero(req uint64, x *tensor.Dense) *roundFrame {
	c.t.Helper()
	env, err := c.proto.Data.EncryptMetered(req, x, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	w, err := ToWire(env)
	if err != nil {
		c.t.Fatal(err)
	}
	return &roundFrame{Round: 0, Env: w}
}

// open runs req's round 0 and returns its round-1 frame, unsent.
func (c *rawClient) open(req uint64, deadlineMS int64) *roundFrame {
	c.t.Helper()
	f := c.roundZero(req, tensor.Zeros(4))
	f.DeadlineMS = deadlineMS
	c.send(req, f)
	reply := c.recv(replyOK)
	env, err := FromWire(reply.Payload.(*roundFrame).Env, c.s.pk)
	if err != nil {
		c.t.Fatal(err)
	}
	env.Req = req
	if env, err = c.proto.Data.ProcessNonLinearMetered(0, env, nil); err != nil {
		c.t.Fatal(err)
	}
	w, err := ToWire(env)
	if err != nil {
		c.t.Fatal(err)
	}
	return &roundFrame{Round: 1, Env: w}
}

// complete runs req through both rounds of the two-round test network.
func (c *rawClient) complete(req uint64) {
	c.t.Helper()
	c.send(req, c.open(req, 0))
	c.recv(replyOK)
}

// waitOutcomes blocks until the session has published n terminal outcomes.
func (c *rawClient) waitOutcomes(n uint64) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := c.s.reg.Snapshot().Counters
		if snap["serve.requests.ok"]+snap["serve.requests.err"]+snap["serve.requests.shed"] >= n {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("only %v of %d outcomes published", snap, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionTerminalOutcomes drives every way a request can end over a
// raw session and checks the lifecycle's one invariant on each: every
// request offered reaches exactly one outcome (ok + err + shed ==
// offered; each outcome counter's total equal to its live window; one
// serve.latency observation per ok; one SLO observation and one span-store
// record, carrying the session plan, per request), and once the session
// is over nothing of any request is left — no live entry, no held shed
// slot, no permutation state in the model provider.
func TestSessionTerminalOutcomes(t *testing.T) {
	limiter := func() *RateLimiter {
		rl, err := NewRateLimiter(1, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return rl
	}
	cases := []struct {
		name          string
		cfg           SessionConfig
		drive         func(c *rawClient)
		ok, err, shed uint64
		counter       string // cause counter expected at 1, if any
	}{
		{name: "success", ok: 1,
			drive: func(c *rawClient) { c.complete(1) }},
		{name: "shed", ok: 1, shed: 1,
			drive: func(c *rawClient) {
				last := c.open(1, 0) // holds the only slot mid-protocol
				c.send(2, c.roundZero(2, tensor.Zeros(4)))
				c.recv(CodeShed)
				c.send(1, last)
				c.recv(replyOK)
			}},
		// A throttle is a refusal at admission, like a shed: counted as one,
		// and retryable.
		{name: "throttle", cfg: SessionConfig{Limiter: limiter()}, ok: 1, shed: 1,
			drive: func(c *rawClient) {
				c.complete(1)
				c.send(2, c.roundZero(2, tensor.Zeros(4)))
				if m := c.recv(CodeThrottled); !errors.Is(m.Err, ErrThrottled) || !Retryable(m.Err) {
					c.t.Errorf("throttled request's reply %v, want a retryable ErrThrottled", m.Err)
				}
			}},
		{name: "deadline in queue", err: 1, counter: "requests.deadline_expired",
			drive: func(c *rawClient) {
				// A frame whose 10 ms budget ran out while it waited a second
				// for a worker.
				f := c.roundZero(1, tensor.Zeros(4))
				f.DeadlineMS = 10
				c.s.handle(&stream.Message{Seq: 1, Payload: f}, f, time.Now().Add(-time.Second))
				c.recv(CodeDeadline)
			}},
		{name: "janitor deadline eviction", cfg: SessionConfig{IdleTTL: 400 * time.Millisecond}, err: 1, counter: "requests.deadline_evicted",
			drive: func(c *rawClient) {
				last := c.open(1, 30)
				c.waitOutcomes(1)
				c.send(1, last)
				c.recv(CodeEvicted) // stale: not a second outcome
			}},
		{name: "idle eviction", cfg: SessionConfig{IdleTTL: 60 * time.Millisecond}, err: 1, counter: "requests.evicted",
			drive: func(c *rawClient) {
				c.open(1, 0)
				c.waitOutcomes(1)
			}},
		{name: "kernel failure", err: 1,
			drive: func(c *rawClient) {
				c.send(1, c.roundZero(1, tensor.Zeros(9))) // wrong input size
				c.recv(CodeNone)
			}},
		{name: "session close with a request live", err: 1,
			drive: func(c *rawClient) { c.open(1, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry(tc.name)
			slo, err := obs.NewSLOEngine(obs.SLOConfig{Specs: []obs.SLOSpec{{Name: "avail", Objective: 0.99}}})
			if err != nil {
				t.Fatal(err)
			}
			shed := NewShedder(ShedConfig{MaxInFlight: 1})
			// Stores that keep everything they are offered: one record per
			// request shows up as exactly one retained record each.
			traces, flight := obs.NewFlightRecorder(0, 0, 0), obs.NewFlightRecorder(0, 0, 0)
			cfg := tc.cfg
			cfg.Registry, cfg.SLO, cfg.Shed, cfg.Traces, cfg.Flight = reg, slo, shed, traces, flight
			s, edge, serveErr, _ := openRawSession(t, cfg)
			proto, err := Build(buildNet(t), key(t), Config{Factor: 1000})
			if err != nil {
				t.Fatal(err)
			}
			tc.drive(&rawClient{t: t, s: s, edge: edge, proto: proto})
			edge.CloseSend()
			if err := <-serveErr; err != nil {
				t.Fatalf("server: %v", err)
			}
			snap := reg.Snapshot()
			for name, want := range map[string]uint64{
				"serve.requests.ok": tc.ok, "serve.requests.err": tc.err, "serve.requests.shed": tc.shed,
			} {
				if got := snap.Counters[name]; got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
				if got := reg.Counter(name).Live().Count; got != want {
					t.Errorf("live %s = %d, want %d", name, got, want)
				}
			}
			lat := reg.Histogram("serve.latency")
			if got, live := lat.Snapshot().Count, lat.Live().Count; got != tc.ok || live != tc.ok {
				t.Errorf("serve.latency counted %d (window %d), want the %d ok requests only", got, live, tc.ok)
			}
			for store, ts := range map[string]*obs.TraceStore{"traces": traces, "flight": flight} {
				recs, err := ts.Query(obs.TraceQuery{})
				if err != nil {
					t.Fatal(err)
				}
				ids := map[string]bool{}
				for _, rec := range recs {
					ids[rec.Trace.ID] = true
					if fmt.Sprint(rec.Plan) != fmt.Sprint(s.life.plan) || len(rec.Plan) != s.mp.Stages() {
						t.Errorf("%s record %s carries plan %v, want the session's %v", store, rec.Trace.ID, rec.Plan, s.life.plan)
					}
				}
				if n := tc.ok + tc.err + tc.shed; uint64(len(recs)) != n || uint64(len(ids)) != n {
					t.Errorf("%s holds %d records for %d requests (%d distinct), want one each", store, len(recs), n, len(ids))
				}
			}
			if tc.counter != "" && snap.Counters[tc.counter] != 1 {
				t.Errorf("%s = %d, want 1", tc.counter, snap.Counters[tc.counter])
			}
			w := slo.Evaluate()[0].Windows[3]
			if w.Good != tc.ok || w.Bad != tc.err+tc.shed {
				t.Errorf("SLO engine saw %d good / %d bad, want %d / %d", w.Good, w.Bad, tc.ok, tc.err+tc.shed)
			}
			if n := len(s.live); n != 0 || snap.Gauges["requests.active"] != 0 {
				t.Errorf("%d live entries, requests.active %d after the session", n, snap.Gauges["requests.active"])
			}
			if n := shed.InFlight(); n != 0 {
				t.Errorf("%d shed slots still held", n)
			}
			if n := len(s.mp.state); n != 0 {
				t.Errorf("model provider still holds permutation state for %d requests", n)
			}
		})
	}
}

// TestSessionHostileRound: frames naming a round the model does not have
// are refused with CodeBadRound before admission — they create no request,
// take no shed slot and mint no per-round histogram, however many arrive —
// and the session goes on serving.
func TestSessionHostileRound(t *testing.T) {
	shed := NewShedder(ShedConfig{MaxInFlight: 4})
	s, edge, serveErr, _ := openRawSession(t, SessionConfig{Shed: shed})
	proto, err := Build(buildNet(t), key(t), Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	c := &rawClient{t: t, s: s, edge: edge, proto: proto}
	c.complete(1)
	histograms := len(s.reg.Snapshot().Histograms)
	const n = 50
	for i := 1; i <= n; i++ {
		round := -i
		if i%2 == 0 {
			round = s.mp.Stages() + i
		}
		f := c.roundZero(uint64(100+i), tensor.Zeros(4))
		f.Round = round
		c.send(uint64(100+i), f)
		c.recv(CodeBadRound)
	}
	snap := s.reg.Snapshot()
	if got := len(snap.Histograms); got != histograms {
		t.Errorf("%d hostile frames grew the registry from %d to %d histograms", n, histograms, got)
	}
	if snap.Gauges["requests.active"] != 0 || shed.InFlight() != 0 || len(s.mp.state) != 0 {
		t.Errorf("hostile frames left requests.active %d, %d shed slots, %d permutation chains",
			snap.Gauges["requests.active"], shed.InFlight(), len(s.mp.state))
	}
	if got := snap.Counters["rounds.errors"]; got != n {
		t.Errorf("rounds.errors = %d, want %d", got, n)
	}
	c.complete(2)
	edge.CloseSend()
	if err := <-serveErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestSessionShedTargetIsRequestLatency pins what a session's latency
// target is compared against: the server-observed latency of whole
// requests — first frame's arrival to last round's reply, the client's
// time between rounds included — not of single rounds. A two-round request
// whose client pauses past the target between its rounds trips the shedder
// although neither round ran anywhere near that long.
func TestSessionShedTargetIsRequestLatency(t *testing.T) {
	const target = 150 * time.Millisecond
	shed := NewShedder(ShedConfig{LatencyTarget: target})
	s, edge, serveErr, _ := openRawSession(t, SessionConfig{Shed: shed})
	proto, err := Build(buildNet(t), key(t), Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	c := &rawClient{t: t, s: s, edge: edge, proto: proto}
	last := c.open(1, 0)
	time.Sleep(target + 50*time.Millisecond)
	c.send(1, last)
	c.recv(replyOK)
	if slowest := s.roundTime.Snapshot().Max; slowest >= target {
		t.Skipf("a single round took %v on this machine: the request says nothing about rounds versus requests", slowest)
	}
	c.send(2, c.roundZero(2, tensor.Zeros(4)))
	c.recv(CodeShed)
	edge.CloseSend()
	if err := <-serveErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestSessionAdmitTwins: a second round-0 frame that opens an ID while the
// first is between its lookup and its insert (a client never sends one)
// wins the ID; the first finishes its own admission as err, so one request
// stays live holding one slot.
func TestSessionAdmitTwins(t *testing.T) {
	shed := NewShedder(ShedConfig{LatencyTarget: time.Hour})
	s, edge, serveErr, _ := openRawSession(t, SessionConfig{Shed: shed})
	// The shedder reads its clock inside Lifecycle.Admit — outside the
	// session lock, exactly where the twin can slip in.
	var twin *Request
	raced := false
	shed.win.SetClock(func() time.Time {
		if !raced {
			raced = true // the nested admit reads the clock too
			var err error
			if twin, err = s.admit(7, &roundFrame{}, time.Now(), time.Time{}); err != nil {
				t.Errorf("twin: %v", err)
			}
		}
		return time.Now()
	})
	if req, err := s.admit(7, &roundFrame{}, time.Now(), time.Time{}); err == nil {
		t.Errorf("the frame that lost the race was admitted as %p beside %p", req, twin)
	}
	snap := s.reg.Snapshot()
	if s.live[7] != twin || len(s.live) != 1 || shed.InFlight() != 1 ||
		snap.Gauges["requests.active"] != 1 || snap.Counters["serve.requests.err"] != 1 {
		t.Errorf("live %v (twin %p), %d slots, requests.active %d, %d err; want the twin alone, 1, 1, 1",
			s.live, twin, shed.InFlight(), snap.Gauges["requests.active"], snap.Counters["serve.requests.err"])
	}
	edge.CloseSend()
	if err := <-serveErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	if shed.InFlight() != 0 {
		t.Errorf("%d slots held after the session", shed.InFlight())
	}
}
