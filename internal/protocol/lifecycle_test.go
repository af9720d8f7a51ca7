package protocol

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ppstream/internal/obs"
	"ppstream/internal/tensor"
)

// TestSessionTerminalOutcomes drives every way a request can end over a
// raw session and checks the session's one invariant on each: every
// request offered reaches exactly one outcome (ok + err + shed ==
// offered; each outcome counter's total equal to its live window; one
// serve.latency observation per ok; one SLO observation and one span-store
// record, carrying the session plan, per request), and once the session
// is over nothing of any request is left — no live entry, no held gate
// slot, no permutation state in the model provider.
func TestSessionTerminalOutcomes(t *testing.T) {
	cases := []struct {
		name          string
		cfg           SessionConfig
		rateLimit     int // the gate's starts per minute; 0 is unlimited
		drive         func(c *harness)
		ok, err, shed uint64
		counter       string // cause counter expected at 1, if any
	}{
		{name: "success", ok: 1,
			drive: func(c *harness) { c.complete(1) }},
		{name: "shed", ok: 1, shed: 1,
			drive: func(c *harness) {
				last := c.midway(1, 0) // holds the only slot mid-protocol
				c.send(2, c.roundZero(2, tensor.Zeros(4)))
				c.recv(CodeShed)
				c.send(1, last)
				c.recv(replyOK)
			}},
		// A throttle is a refusal at admission, like a shed: counted as one,
		// and retryable.
		{name: "throttle", rateLimit: 1, ok: 1, shed: 1,
			drive: func(c *harness) {
				c.complete(1)
				c.send(2, c.roundZero(2, tensor.Zeros(4)))
				if m := c.recv(CodeThrottled); !errors.Is(m.Err, ErrThrottled) || !Retryable(m.Err) {
					c.t.Errorf("throttled request's reply %v, want a retryable ErrThrottled", m.Err)
				}
			}},
		{name: "deadline in queue", err: 1, counter: "requests.deadline_expired",
			drive: func(c *harness) {
				// A frame whose 10 ms budget ran out while it waited a second
				// in its round's queue: it arrived a second ago, and the test
				// is the round's goroutine that picks it up now.
				f := c.roundZero(1, tensor.Zeros(4))
				f.DeadlineMS = 10
				arrived := time.Now().Add(-time.Second)
				if st := c.s.arrive(arrived, 1, f); st.err != nil {
					c.t.Fatal(st.err)
				}
				_, err := c.s.handle(queued{id: 1, frame: f, arrived: arrived})
				if got := errCode(err); got != CodeDeadline {
					c.t.Errorf("frame past its budget: code %d err %v, want code %d", got, err, CodeDeadline)
				}
			}},
		{name: "janitor deadline eviction", cfg: SessionConfig{IdleTTL: 400 * time.Millisecond}, err: 1, counter: "requests.deadline_evicted",
			drive: func(c *harness) {
				last := c.midway(1, 30)
				c.waitOutcomes(1)
				c.send(1, last)
				c.recv(CodeEvicted) // stale: not a second outcome
			}},
		{name: "idle eviction", cfg: SessionConfig{IdleTTL: 60 * time.Millisecond}, err: 1, counter: "requests.evicted",
			drive: func(c *harness) {
				c.midway(1, 0)
				c.waitOutcomes(1)
			}},
		// Round 0 again once it was served: the request expects round 1.
		{name: "repeated round", err: 1,
			drive: func(c *harness) {
				c.midway(1, 0)
				c.send(1, c.roundZero(1, tensor.Zeros(4)))
				c.recv(CodeBadRound)
			}},
		{name: "kernel failure", err: 1,
			drive: func(c *harness) {
				c.send(1, c.roundZero(1, tensor.Zeros(9))) // wrong input size
				c.recv(CodeNone)
			}},
		{name: "session close with a request live", err: 1,
			drive: func(c *harness) { c.midway(1, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry(tc.name)
			reg.KeepWindows() // the live assertions below read the windows
			slo, err := obs.NewSLOEngine(obs.SLOConfig{Specs: []obs.SLOSpec{{Name: "avail", Objective: 0.99}}})
			if err != nil {
				t.Fatal(err)
			}
			gate, err := NewGate(GateConfig{MaxInFlight: 1, RateLimit: tc.rateLimit, RateWindow: time.Minute, Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			// Stores that keep everything they are offered: one record per
			// request shows up as exactly one retained record each.
			traces, flight := obs.NewFlightRecorder(0, 0, 0), obs.NewFlightRecorder(0, 0, 0)
			cfg := tc.cfg
			cfg.Registry, cfg.SLO, cfg.Gate, cfg.Traces, cfg.Flight = reg, slo, gate, traces, flight
			c := open(t, opening{tcp: true, raw: true, cfg: cfg})
			s := c.s
			tc.drive(c)
			c.edge.CloseSend()
			if err := c.wait(); err != nil {
				t.Fatalf("server: %v", err)
			}
			snap, live := reg.Snapshot(), reg.LiveSnapshot()
			for name, want := range map[string]uint64{
				"serve.requests.ok": tc.ok, "serve.requests.err": tc.err, "serve.requests.shed": tc.shed,
			} {
				if got := snap.Counters[name]; got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
				if got := live.Counters[name].Count; got != want {
					t.Errorf("live %s = %d, want %d", name, got, want)
				}
			}
			lat := reg.Histogram("serve.latency")
			if got, live := lat.Snapshot().Count, lat.Live().Count; got != tc.ok || live != tc.ok {
				t.Errorf("serve.latency counted %d (window %d), want the %d ok requests only", got, live, tc.ok)
			}
			for store, ts := range map[string]*obs.TraceStore{"traces": traces, "flight": flight} {
				recs := ts.Query(obs.TraceQuery{})
				ids := map[string]bool{}
				for _, rec := range recs {
					ids[rec.Trace.ID] = true
					if fmt.Sprint(rec.Plan) != fmt.Sprint(s.plan) || len(rec.Plan) != s.mp.Stages() {
						t.Errorf("%s record %s carries plan %v, want the session's %v", store, rec.Trace.ID, rec.Plan, s.plan)
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
			if n := len(s.table.live); n != 0 || snap.Gauges["requests.active"] != 0 {
				t.Errorf("%d live entries, requests.active %d after the session", n, snap.Gauges["requests.active"])
			}
			if n := snap.Gauges["shed.inflight"]; n != 0 {
				t.Errorf("%d gate slots still held", n)
			}
			if n := len(s.mp.state); n != 0 {
				t.Errorf("model provider still holds permutation state for %d requests", n)
			}
		})
	}
}

// TestSessionHostileRound: frames naming a round the model does not have
// are refused with CodeBadRound before admission — they create no request,
// take no gate slot and mint no per-round histogram, however many arrive —
// and the session goes on serving.
func TestSessionHostileRound(t *testing.T) {
	reg := obs.NewRegistry("hostile-round")
	gate, err := NewGate(GateConfig{MaxInFlight: 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	c := open(t, opening{tcp: true, raw: true, cfg: SessionConfig{Gate: gate, Registry: reg}})
	s := c.s
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
	if snap.Gauges["requests.active"] != 0 || snap.Gauges["shed.inflight"] != 0 || len(s.mp.state) != 0 {
		t.Errorf("hostile frames left requests.active %d, %d gate slots, %d permutation chains",
			snap.Gauges["requests.active"], snap.Gauges["shed.inflight"], len(s.mp.state))
	}
	if got := snap.Counters["rounds.errors"]; got != n {
		t.Errorf("rounds.errors = %d, want %d", got, n)
	}
	c.complete(2)
	c.edge.CloseSend()
	if err := c.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestSessionShedTargetIsRequestLatency pins what a session's latency
// target is compared against: the server-observed latency of whole
// requests — first frame's arrival to last round's reply, the client's
// time between rounds included — not of single rounds. A two-round request
// whose client pauses past the target between its rounds trips the gate
// although neither round ran anywhere near that long.
func TestSessionShedTargetIsRequestLatency(t *testing.T) {
	const target = 150 * time.Millisecond
	gate, err := NewGate(GateConfig{LatencyTarget: target})
	if err != nil {
		t.Fatal(err)
	}
	c := open(t, opening{tcp: true, raw: true, cfg: SessionConfig{Gate: gate}})
	last := c.midway(1, 0)
	time.Sleep(target + 50*time.Millisecond)
	c.send(1, last)
	c.recv(replyOK)
	if slowest := c.reg.Histogram("round.linear").Snapshot().Max; slowest >= target {
		t.Skipf("a single round took %v on this machine: the request says nothing about rounds versus requests", slowest)
	}
	c.send(2, c.roundZero(2, tensor.Zeros(4)))
	c.recv(CodeShed)
	c.edge.CloseSend()
	if err := c.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestSessionAdmitTwins: a second round-0 frame for a request whose
// round 0 is still on its way through the round's stage (a client never
// sends one) is refused with CodeBadRound on arrival, and the request ends
// when its running round returns, answered with the same refusal: one err
// outcome, its slot free and no permutation state left.
func TestSessionAdmitTwins(t *testing.T) {
	reg := obs.NewRegistry("admit-twins")
	gate, err := NewGate(GateConfig{MaxInFlight: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	c := open(t, opening{tcp: true, raw: true, cfg: SessionConfig{Gate: gate, Registry: reg}})
	s := c.s
	// The test is the receive loop and round 0's goroutine: the first frame
	// is queued, its twin arrives before the round picks the first up.
	first, twin := c.roundZero(7, tensor.Zeros(4)), c.roundZero(7, tensor.Zeros(4))
	now := time.Now()
	if st := s.arrive(now, 7, first); st.err != nil {
		t.Fatal(st.err)
	}
	if st := s.arrive(now, 7, twin); !errors.Is(st.err, ErrBadRound) {
		t.Errorf("twin round 0: %v, want ErrBadRound", st.err)
	}
	if snap := reg.Snapshot(); snap.Gauges["shed.inflight"] != 1 || snap.Counters["serve.requests.err"] != 0 {
		t.Errorf("request ended while its round 0 was dispatched: %d slots, %d err", snap.Gauges["shed.inflight"], snap.Counters["serve.requests.err"])
	}
	if _, err := s.handle(queued{id: 7, frame: first, arrived: now}); !errors.Is(err, ErrBadRound) {
		t.Errorf("first round 0: %v, want ErrBadRound", err)
	}
	snap := reg.Snapshot()
	if snap.Gauges["shed.inflight"] != 0 || snap.Gauges["requests.active"] != 0 || snap.Counters["serve.requests.err"] != 1 || len(s.mp.state) != 0 {
		t.Errorf("%d slots, requests.active %d, %d err, %d permutation chains; want 0, 0, 1, 0",
			snap.Gauges["shed.inflight"], snap.Gauges["requests.active"], snap.Counters["serve.requests.err"], len(s.mp.state))
	}
	c.edge.CloseSend()
	if err := c.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
}
