package protocol

import (
	"context"
	"net"
	"testing"
	"time"

	"ppstream/internal/obs"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// TestServeSessionObservedMetrics runs a session over instrumented TCP
// edges and checks the registry records rounds, session counts, and
// wire bytes.
func TestServeSessionObservedMetrics(t *testing.T) {
	k := key(t)
	netw := buildNet(t)
	const factor = 1000
	reg := obs.NewRegistry("server")

	c2s1, s2c1 := net.Pipe()
	c2s2, s2c2 := net.Pipe()
	serverIn := stream.NewInstrumentedTCPEdge(s2c1, reg, "tcp")
	serverOut := stream.NewInstrumentedTCPEdge(c2s2, reg, "tcp")
	clientOut := stream.NewTCPEdge(c2s1)
	clientIn := stream.NewTCPEdge(s2c2)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ServeSessionConfig(ctx, serverIn, serverOut, netw, SessionConfig{Factor: factor, MaxWorkers: 4, Registry: reg})
	}()
	client, err := NewClientOpts(ctx, clientIn, clientOut, netw, k, factor, ClientOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const inferences = 2
	for i := 0; i < inferences; i++ {
		if _, err := client.Infer(ctx, tensor.Zeros(4)); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	if err := <-serveErr; err != nil {
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
	h := s.Histograms["round.linear"]
	if h.Count != rounds || h.P50 <= 0 {
		t.Errorf("round.linear histogram %+v, want count %d with positive p50", h, rounds)
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
