package main

import (
	"context"
	"errors"
	"fmt"
	gonet "net"
	"runtime/metrics"
	"sync"
	"time"

	"ppstream/internal/backend"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/protocol"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// stepper drives the protocol one public call at a time, the way
// protocol.Client and ServeSessionConfig (or the engine's pipeline
// stages) do, so the benchmark can put a span around every call. Both
// roles live in this process; on session workloads every envelope still
// crosses a real loopback TCP edge pair between them.
type stepper struct {
	mp   *protocol.ModelProvider
	dp   *protocol.DataProvider
	key  *paillier.PrivateKey
	link *link // nil: the roles exchange envelopes in-process (engine)
	// nextReq numbers the stepper's requests from a range the engine's
	// own sequence numbers never reach.
	nextReq uint64
	blind   *paillier.Pool
}

// newSessionStepper builds the two roles the way a session does: the
// server's provider with a per-session blinding pool and the solved
// backend plan, the client's provider without a pool, Workers 1 on both.
func newSessionStepper(ctx context.Context, w workload, in *inputs) (*stepper, error) {
	net, err := in.spec.Build()
	if err != nil {
		return nil, err
	}
	cfg := protocol.Config{Factor: factor, Workers: 1}
	mp, err := protocol.BuildModelProvider(net, &in.key.PublicKey, cfg)
	if err != nil {
		return nil, err
	}
	dp, err := protocol.BuildDataProvider(net, in.key, cfg)
	if err != nil {
		return nil, err
	}
	boundary := w.clearBoundary
	if boundary <= 0 {
		boundary = mp.Stages()
	}
	plan, err := backend.PlanFor(w.profile, mp.LayerInfos(), boundary, in.key.N.BitLen())
	if err != nil {
		return nil, err
	}
	if err := mp.SetBackendPlan(plan.Assignment); err != nil {
		return nil, err
	}
	if err := dp.SetBackendPlan(plan.Assignment); err != nil {
		return nil, err
	}
	// Pool sizing as in ServeSessionConfig: 24 factors per Paillier
	// round, between 8 and 64, one fill worker.
	poolSize := 0
	for _, k := range plan.Assignment {
		if k == backend.PaillierHE {
			poolSize += 24
		}
	}
	poolSize = min(max(poolSize, 8), 64)
	blind := paillier.NewPool(&in.key.PublicKey, nil, poolSize, 1)
	mp.SetBlindPool(blind)
	l, err := newLink(ctx)
	if err != nil {
		blind.Close()
		return nil, err
	}
	return &stepper{mp: mp, dp: dp, key: in.key, link: l, blind: blind, nextReq: 1 << 40}, nil
}

// newEngineStepper walks the engine's own protocol roles, which carry the
// stage plan (threads, tensor partitioning) NewEngine applied.
func newEngineStepper(sys *engineSystem, in *inputs) *stepper {
	p := sys.engine.Protocol
	return &stepper{mp: p.Model, dp: p.Data, key: in.key, nextReq: 1 << 40}
}

func (s *stepper) close() error {
	if s.blind != nil {
		s.blind.Close()
	}
	if s.link != nil {
		return s.link.close()
	}
	return nil
}

// link is a loopback TCP connection carrying stream.Edge frames both
// ways, with a receiver goroutine per direction so a Send larger than the
// socket buffers cannot block on its own Recv.
type link struct {
	client, server     stream.Edge
	atServer, atClient chan received
	conns              [2]gonet.Conn
	pumps              sync.WaitGroup
}

type received struct {
	msg *stream.Message
	err error
}

func newLink(ctx context.Context) (*link, error) {
	clientConn, serverConn, err := loopbackPair()
	if err != nil {
		return nil, err
	}
	l := &link{
		client: stream.NewTCPEdge(clientConn), server: stream.NewTCPEdge(serverConn),
		atServer: make(chan received, 1), atClient: make(chan received, 1),
		conns: [2]gonet.Conn{clientConn, serverConn},
	}
	pump := func(e stream.Edge, to chan received) {
		defer l.pumps.Done()
		for {
			m, err := e.Recv(ctx)
			to <- received{m, err}
			if err != nil {
				return
			}
		}
	}
	l.pumps.Add(2)
	go pump(l.server, l.atServer)
	go pump(l.client, l.atClient)
	return l, nil
}

// carry sends env's wire form over the edge and waits until the peer has
// received it.
func (l *link) carry(ctx context.Context, from stream.Edge, at chan received, w *protocol.WireEnvelope) (*protocol.WireEnvelope, error) {
	if err := from.Send(ctx, &stream.Message{Seq: w.Req, Payload: w}); err != nil {
		return nil, err
	}
	select {
	case r := <-at:
		if r.err != nil {
			return nil, r.err
		}
		got, ok := r.msg.Payload.(*protocol.WireEnvelope)
		if !ok {
			return nil, fmt.Errorf("bench: edge delivered %T", r.msg.Payload)
		}
		return got, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (l *link) close() error {
	err := errors.Join(l.client.CloseSend(), l.server.CloseSend())
	l.pumps.Wait() // each pump ends on the peer's close frame
	return errors.Join(err, l.conns[0].Close(), l.conns[1].Close())
}

// heapAllocs reads the process's cumulative allocated bytes without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// stepResult is what one step-by-step request leaves besides its spans.
type stepResult struct {
	out   *tensor.Dense
	req   int
	total time.Duration
	// wireAlloc is the heap allocated while envelopes were being
	// serialised, carried and parsed.
	wireAlloc uint64
	// replies are the Paillier round replies, kept for the decrypt probe.
	replies []*paillier.CipherTensor
}

// infer runs one request step by step. With a recorder every call is
// wrapped in a span and metered; with rec == nil the same calls run bare
// (no spans, nil meters, no allocation readings), which is the baseline
// trace.overhead_pct compares against.
func (s *stepper) infer(ctx context.Context, rec *recorder, x *tensor.Dense) (*stepResult, error) {
	s.nextReq++
	req := s.nextReq
	res := &stepResult{req: int(req - 1<<40)}
	var meter *obs.CostMeter
	if rec != nil {
		meter = new(obs.CostMeter)
	}
	// costSince closes span id with the meter's delta since prev.
	costSince := func(id int, prev obs.CostStats) *span {
		sp := rec.end(id)
		if sp != nil {
			if d := meter.Diff(prev); !d.IsZero() {
				sp.Cost = &d
			}
		}
		return sp
	}
	snapshot := func() obs.CostStats {
		if meter == nil {
			return obs.CostStats{}
		}
		return meter.Snapshot()
	}
	start := time.Now()
	root := rec.begin(0, res.req, spanRequest, "client", -1)

	prev := snapshot()
	id := rec.begin(root, res.req, spanEncrypt, "client", -1)
	env, err := s.dp.EncryptMetered(req, x, meter)
	if err != nil {
		return nil, err
	}
	costSince(id, prev)

	// hop moves env to the other party: serialise, cross the edge, parse.
	hop := func(round int, sender string, from stream.Edge, at chan received) error {
		var allocBefore uint64
		if rec != nil {
			allocBefore = heapAllocs()
		}
		id := rec.begin(root, res.req, spanToWire, sender, round)
		w, err := protocol.ToWire(env)
		if err != nil {
			return err
		}
		rec.end(id)
		id = rec.begin(root, res.req, spanSendRecv, "wire", round)
		if w, err = s.link.carry(ctx, from, at, w); err != nil {
			return err
		}
		rec.end(id)
		receiver := "server"
		if sender == "server" {
			receiver = "client"
		}
		id = rec.begin(root, res.req, spanFromWire, receiver, round)
		if env, err = protocol.FromWire(w, &s.key.PublicKey); err != nil {
			return err
		}
		rec.end(id)
		if rec != nil {
			res.wireAlloc += heapAllocs() - allocBefore
		}
		return nil
	}

	for r := 0; r < s.mp.Stages(); r++ {
		kind := s.mp.RoundBackend(r)
		if s.link != nil {
			if err := hop(r, "client", s.link.client, s.link.atServer); err != nil {
				return nil, err
			}
		}
		prev = snapshot()
		id = rec.begin(root, res.req, spanLinear, "server", r)
		var timing protocol.LinearTiming
		if env, timing, err = s.mp.ProcessLinearMetered(r, env, meter); err != nil {
			return nil, err
		}
		if sp := costSince(id, prev); sp != nil {
			sp.Backend = string(kind)
			// Inverse permutation precedes the kernel and permutation
			// follows it; the program reports only their sum, so both
			// children are placed from the parent's start.
			rec.place(sp, spanKernel, 0, timing.Kernel)
			rec.place(&rec.spans[id-1], spanPermute, timing.Kernel, timing.Permute)
		}
		if s.link != nil {
			if err := hop(r, "server", s.link.server, s.link.atClient); err != nil {
				return nil, err
			}
		}
		if rec != nil && env.CT != nil {
			res.replies = append(res.replies, env.CT)
		}
		env.Req = req
		prev = snapshot()
		id = rec.begin(root, res.req, spanNonLinear, "client", r)
		if env, err = s.dp.ProcessNonLinearMetered(r, env, meter); err != nil {
			return nil, err
		}
		if sp := costSince(id, prev); sp != nil {
			sp.Backend = string(kind)
		}
	}
	s.mp.Forget(req)
	rec.end(root)
	res.total = time.Since(start)
	if env.Result == nil {
		return nil, errors.New("bench: step-by-step walk ended without a result")
	}
	res.out = env.Result
	return res, nil
}

// probeDecrypt times paillier.DecryptTensorBig on the request's round
// replies, outside the request's spans, and returns µs per ciphertext (0
// when the request had no Paillier reply).
func (s *stepper) probeDecrypt(res *stepResult) (float64, error) {
	var n int
	start := time.Now()
	for _, ct := range res.replies {
		if _, err := paillier.DecryptTensorBig(s.key, ct, 1); err != nil {
			return 0, err
		}
		n += ct.Size()
	}
	if n == 0 {
		return 0, nil
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(n), nil
}
