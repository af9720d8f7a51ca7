package protocol

import (
	"testing"
	"time"

	"ppstream/internal/obs"
	"ppstream/internal/tensor"
)

// TestServeSessionObservedMetrics runs a session over instrumented TCP
// edges and checks the registry records rounds, session counts, and
// wire bytes.
func TestServeSessionObservedMetrics(t *testing.T) {
	reg := obs.NewRegistry("server")
	h := open(t, opening{tcp: true, cfg: SessionConfig{MaxWorkers: 4, Registry: reg}, opts: ClientOptions{Workers: 2}})
	client, ctx := h.client, h.ctx
	const inferences = 2
	for i := 0; i < inferences; i++ {
		if _, err := client.Infer(ctx, tensor.Zeros(4)); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	if err := h.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}

	s := reg.Snapshot()
	if s.Counters["sessions.total"] != 1 {
		t.Errorf("sessions.total %d, want 1", s.Counters["sessions.total"])
	}
	if s.Gauges["sessions.active"] != 0 {
		t.Errorf("sessions.active %d after close, want 0", s.Gauges["sessions.active"])
	}
	rounds := s.Counters["rounds.served"]
	if rounds == 0 || rounds%inferences != 0 {
		t.Errorf("rounds.served %d, want a positive multiple of %d", rounds, inferences)
	}
	hist := s.Histograms["round.linear"]
	if hist.Count != rounds || hist.P50 <= 0 {
		t.Errorf("round.linear histogram %+v, want count %d with positive p50", hist, rounds)
	}
	if _, ok := s.Histograms["round.0.linear"]; !ok {
		t.Error("per-round histogram round.0.linear missing")
	}
	alive, ok := s.Gauges["pool.workers.alive"]
	if !ok {
		t.Error("pool.workers.alive gauge missing")
	} else if alive != 0 {
		t.Errorf("pool.workers.alive %d after session close, want 0", alive)
	}
	if s.Counters["tcp.bytes_recv"] == 0 || s.Counters["tcp.bytes_sent"] == 0 {
		t.Errorf("wire byte counters not recorded: %v", s.Counters)
	}
	if s.Counters["tcp.frames_recv"] == 0 || s.Counters["tcp.frames_sent"] == 0 {
		t.Errorf("wire frame counters not recorded: %v", s.Counters)
	}
}

// TestRoundFoldAllocatesNothing: with a registry attached and its windows
// on, one served round's telemetry fold — its three histograms, its cost
// profile under the round's backend, rounds.served — goes through the
// handles the session resolved at its start and allocates nothing once
// each cost counter has been looked up by the round that first counted it.
func TestRoundFoldAllocatesNothing(t *testing.T) {
	reg := obs.NewRegistry("fold")
	reg.KeepWindows()
	h := open(t, opening{tcp: true, raw: true, cfg: SessionConfig{Registry: reg}})
	s := h.s
	timing := LinearTiming{Kernel: 2 * time.Millisecond, Permute: time.Millisecond}
	cost := obs.CostStats{ModExps: 3, MulMods: 40, PoolHits: 2, CipherBytesIn: 512, CipherBytesOut: 256}
	fold := func() {
		s.fold(0, 4*time.Millisecond, timing, cost)
		s.m.served.Inc()
	}
	fold()
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, fold); allocs != 0 {
		t.Errorf("one round's telemetry fold allocates %v times, want 0", allocs)
	}
	// The first call, AllocsPerRun's warm-up call and its runs.
	const n = runs + 2
	snap := reg.Snapshot()
	backend := s.mp.RoundBackend(0).MetricName()
	if got := snap.Counters["cost."+backend+".mulmods"]; got != n*40 {
		t.Errorf("cost.%s.mulmods = %d, want %d", backend, got, n*40)
	}
	if got := snap.Histograms["round.kernel"].Count; got != n {
		t.Errorf("round.kernel count %d, want %d", got, n)
	}
	if got := reg.LiveSnapshot().Counters["cost."+backend+".modexps"].Count; got != n*3 {
		t.Errorf("cost.%s.modexps window %d, want %d", backend, got, n*3)
	}
	h.edge.CloseSend()
	if err := h.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
}
