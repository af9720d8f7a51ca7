package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	gonet "net"
	"time"

	"ppstream/internal/core"
	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/protocol"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// system is a serving deployment under test: something callers hand an
// input and wait on for the inference result.
type system interface {
	infer(ctx context.Context, x *tensor.Dense) (*tensor.Dense, error)
	// wireBytes is the traffic both directions since the system came up
	// (0 for in-process deployments).
	wireBytes() uint64
	close() error
}

// session is one protocol.ServeSessionConfig ↔ protocol.Client pair over
// a loopback TCP connection, both parties in this process.
type session struct {
	client   *protocol.Client
	conn     gonet.Conn
	edges    *obs.Registry
	serveErr chan error
	cancel   context.CancelFunc
	// traces is the span store of a session opened with telemetry on.
	traces *obs.TraceStore
}

// loopbackPair returns the two ends of a fresh loopback TCP connection.
func loopbackPair() (client, server gonet.Conn, err error) {
	l, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("bench: listen: %w", err)
	}
	defer l.Close()
	// Dial completes against the listen backlog, so accepting afterwards
	// on this goroutine cannot deadlock.
	if client, err = gonet.Dial("tcp", l.Addr().String()); err != nil {
		return nil, nil, fmt.Errorf("bench: dial: %w", err)
	}
	if server, err = l.Accept(); err != nil {
		client.Close()
		return nil, nil, fmt.Errorf("bench: accept: %w", err)
	}
	return client, server, nil
}

// openSession listens on a loopback port, serves one session on it and
// connects the client. withObs turns on every optional server-side
// telemetry sink (registry, flight recorder, span store, SLO engine,
// logger to io.Discard); the workloads run with none.
func openSession(ctx context.Context, w workload, net *nn.Network, key *paillier.PrivateKey, withObs bool) (*session, error) {
	s := &session{edges: obs.NewRegistry("bench-edges"), serveErr: make(chan error, 1)}
	cfg := protocol.SessionConfig{
		Factor: factor, MaxWorkers: 1, Window: 1,
		Profile: w.profile, ClearBoundary: w.clearBoundary,
	}
	if withObs {
		cfg.Registry = obs.NewRegistry("bench-server")
		cfg.Log = obs.NewLogger(io.Discard, obs.LevelInfo)
		cfg.Flight = obs.NewFlightRecorder(0, 0, 0)
		var err error
		if s.traces, err = obs.NewTraceStore(obs.TraceStoreConfig{Registry: cfg.Registry}); err != nil {
			return nil, err
		}
		cfg.Traces = s.traces
		specs, err := obs.ParseSLOSpecs("p99=1s,avail=99.9")
		if err != nil {
			return nil, err
		}
		if cfg.SLO, err = obs.NewSLOEngine(obs.SLOConfig{Specs: specs, Registry: cfg.Registry}); err != nil {
			return nil, err
		}
	}
	conn, serverConn, err := loopbackPair()
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	go func() {
		defer serverConn.Close()
		edge := stream.NewInstrumentedTCPEdge(serverConn, s.edges, "server")
		s.serveErr <- protocol.ServeSessionConfig(sctx, edge, edge, net, cfg)
	}()
	s.conn = conn
	edge := stream.NewInstrumentedTCPEdge(conn, s.edges, "client")
	s.client, err = protocol.NewClientOpts(sctx, edge, edge, net, key, factor,
		protocol.ClientOptions{Workers: 1, Window: 1, Profile: w.profile})
	if err != nil {
		cancel() // ends the server side, which closes serverConn
		conn.Close()
		return nil, err
	}
	return s, nil
}

func (s *session) infer(ctx context.Context, x *tensor.Dense) (*tensor.Dense, error) {
	return s.client.Infer(ctx, x)
}

// wireBytes counts each byte once: what the client wrote plus what the
// server wrote.
func (s *session) wireBytes() uint64 {
	return s.edges.Counter("client.bytes_sent").Value() + s.edges.Counter("server.bytes_sent").Value()
}

// close ends the session and waits for the server side to return.
func (s *session) close() error {
	err := s.client.Close()
	select {
	case serr := <-s.serveErr:
		err = errors.Join(err, serr)
	case <-time.After(10 * time.Second):
		err = errors.Join(err, errors.New("bench: server session did not end"))
	}
	s.cancel()
	s.conn.Close()
	if s.traces != nil {
		err = errors.Join(err, s.traces.Close())
	}
	return err
}

// engineSystem is the paper's own runtime: core.Engine.Serve/Submit with
// the ILP allocation and tensor partitioning on, in-process.
type engineSystem struct {
	engine *core.Engine
	// planTime is how long NewEngine took: protocol build, offline
	// profiling and the allocation ILP.
	planTime time.Duration
}

func openEngine(ctx context.Context, w workload, net *nn.Network, in *inputs) (*engineSystem, error) {
	start := time.Now()
	e, err := core.NewEngine(net, in.key, core.Options{
		Factor:          factor,
		Topology:        core.Topology{ModelServers: 1, DataServers: 1, CoresPerServer: 2},
		LoadBalance:     true,
		TensorPartition: true,
		ProfileReps:     1,
		ProfileSample:   in.pool[0],
		Window:          1,
		Profile:         w.profile,
		ClearBoundary:   w.clearBoundary,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: building engine: %w", err)
	}
	planTime := time.Since(start)
	if err := e.Serve(ctx); err != nil {
		e.Close()
		return nil, err
	}
	return &engineSystem{engine: e, planTime: planTime}, nil
}

func (s *engineSystem) infer(ctx context.Context, x *tensor.Dense) (*tensor.Dense, error) {
	out, _, err := s.engine.Submit(ctx, x)
	return out, err
}

func (s *engineSystem) wireBytes() uint64 { return 0 }

func (s *engineSystem) close() error {
	err := s.engine.Shutdown()
	s.engine.Close()
	return err
}

// open builds the network and brings the workload's deployment up.
func open(ctx context.Context, w workload, in *inputs) (system, error) {
	net, err := in.spec.Build()
	if err != nil {
		return nil, err
	}
	if w.engine {
		return openEngine(ctx, w, net, in)
	}
	return openSession(ctx, w, net, in.key, false)
}

// setUp is what setup_s times: build the network, bring the deployment up
// (protocol, or engine incl. offline profiling and the ILP; listen, dial,
// Hello) and send the warm-up requests, each checked like a measured one.
// With a yardstick it runs bursts before, between and after these steps,
// leaves their time out, and divides the rest by how much slower than
// usual they found the host; the traced pass passes none.
func setUp(ctx context.Context, w workload, in *inputs, warm int, y *yardstick) (system, time.Duration, error) {
	start := time.Now()
	var inBursts time.Duration
	gauge := func() {
		if y != nil {
			inBursts = y.pace(time.Since(start)-inBursts, inBursts)
		}
	}
	gauge()
	sys, err := open(ctx, w, in)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < warm; i++ {
		gauge()
		k := i % len(in.pool)
		out, err := sys.infer(ctx, in.pool[k])
		if err == nil && !sameBits(out, in.expected[k]) {
			err = fmt.Errorf("output differs from the oracle")
		}
		if err != nil {
			_ = sys.close()
			return nil, 0, fmt.Errorf("bench: warm-up request %d: %w", i, err)
		}
	}
	gauge()
	took := time.Since(start) - inBursts
	if y != nil {
		took = time.Duration(float64(took) / y.slowdown(y.since(start), y.since(time.Now())))
	}
	return sys, took, nil
}
