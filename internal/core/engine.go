// Package core assembles PP-Stream: it takes a trained network, selects
// or accepts a scaling factor, builds the hybrid privacy-preserving
// protocol, profiles the merged primitive layers offline, solves the
// load-balanced resource allocation, and maps the alternating stages
// onto the distributed stream processing pipeline (paper Section IV).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ppstream/internal/alloc"
	"ppstream/internal/backend"
	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/protocol"
	"ppstream/internal/simulate"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// Topology describes the deployment's servers, mirroring Table III's
// "# Servers Model / Data" columns.
type Topology struct {
	ModelServers int
	DataServers  int
	// CoresPerServer is the per-server physical core count; with
	// hyper-threading each server hosts up to 2× threads (Eq. 8).
	CoresPerServer int
}

// Servers expands the topology into the allocator's server list.
func (t Topology) Servers() []alloc.Server {
	out := make([]alloc.Server, 0, t.ModelServers+t.DataServers)
	for i := 0; i < t.ModelServers; i++ {
		out = append(out, alloc.Server{Name: fmt.Sprintf("model-%d", i+1), Model: true, Cores: t.CoresPerServer})
	}
	for i := 0; i < t.DataServers; i++ {
		out = append(out, alloc.Server{Name: fmt.Sprintf("data-%d", i+1), Model: false, Cores: t.CoresPerServer})
	}
	return out
}

// TotalCores returns the topology's aggregate core count.
func (t Topology) TotalCores() int {
	return (t.ModelServers + t.DataServers) * t.CoresPerServer
}

// Options configures engine construction.
type Options struct {
	// Factor is the parameter scaling factor F (required; use
	// scaling.SelectFactor to pick it as in Exp#1).
	Factor int64
	// Topology is the server deployment; zero value means one model +
	// one data server with GOMAXPROCS cores.
	Topology Topology
	// LoadBalance selects alloc.Solve (the paper's ILP) over alloc.Even.
	LoadBalance bool
	// TensorPartition enables input+output tensor partitioning on the
	// model provider's stages (Section IV-D).
	TensorPartition bool
	// ProfileReps is how many sample inferences feed the offline
	// profiling (paper uses 100; tests use fewer).
	ProfileReps int
	// ProfileSample is the input used for offline profiling; required
	// when LoadBalance is set.
	ProfileSample *tensor.Dense
	// Buffer is the pipeline edge depth (default 4).
	Buffer int
	// Pool enables a background encryption-blinding pool on the data
	// provider.
	Pool bool
	// ProfiledTimes, when non-nil, supplies per-merged-stage times
	// (seconds) from an earlier profiling run, skipping the offline
	// profiling pass. Must match the merged stage count and come from
	// the same (model, factor, key size) combination.
	ProfiledTimes []float64
	// ProfiledEncrypt supplies the input-encryption time when
	// ProfiledTimes is set.
	ProfiledEncrypt float64
	// Window bounds the serving runtime's concurrently in-flight
	// requests (Serve/Submit backpressure); <= 0 leaves admission
	// bounded only by the pipeline's edge buffers.
	Window int
	// MaxInFlight enables load shedding in the serving runtime: Submit
	// calls beyond this many admitted-but-unfinished requests fail fast
	// with a retryable protocol.ErrShed instead of queueing. <= 0
	// disables the in-flight shed check. Unlike Window (which blocks
	// submitters), shedding rejects them — the back-pressure signal a
	// remote client's retry loop needs.
	MaxInFlight int
	// ShedLatency sheds new requests while the windowed p95 of recent
	// serve latencies exceeds it; <= 0 disables the latency shed check.
	ShedLatency time.Duration
	// Profile selects the per-round crypto-backend posture (latency,
	// privacy-max, mixed). Empty means privacy-max: every round under
	// Paillier, the paper's original protocol.
	Profile backend.Profile
	// ClearBoundary is the leakage-certified clear boundary: the first
	// linear round allowed to run plaintext (from an
	// internal/leakage.CertifyClearBoundary run). <= 0 means no round
	// may run in the clear regardless of profile.
	ClearBoundary int
}

// Engine is a ready-to-run PP-Stream deployment for one model.
type Engine struct {
	Net      *nn.Network
	Protocol *protocol.Protocol
	Plan     *alloc.Plan
	Layers   []alloc.Layer
	Servers  []alloc.Server
	// Backends is the solved per-round crypto-backend assignment for
	// Options.Profile (privacy-max when unset).
	Backends *backend.Plan
	// EncryptTime is the profiled input encryption time (seconds per
	// request, single thread).
	EncryptTime float64
	opts        Options
	pool        *paillier.Pool
	blind       *paillier.Pool
	keyBits     int
	reg         *obs.Registry

	// shed (nil unless Options.MaxInFlight or ShedLatency is set) and life
	// front every Submit; they are engine-scoped, so the shedder's latency
	// window survives Serve/Shutdown cycles.
	shed *protocol.Shedder
	life *protocol.Lifecycle

	// serveMu guards the persistent serving runtime (see serve.go).
	serveMu sync.Mutex
	disp    *stream.Dispatcher
}

// NewEngine builds the engine: protocol construction, offline profiling,
// resource allocation, and per-stage plan application.
func NewEngine(net *nn.Network, key *paillier.PrivateKey, opts Options) (*Engine, error) {
	if opts.Factor <= 0 {
		return nil, errors.New("core: Options.Factor is required (run the Exp#1 scaling selection)")
	}
	if opts.Topology.ModelServers == 0 && opts.Topology.DataServers == 0 {
		opts.Topology = Topology{ModelServers: 1, DataServers: 1, CoresPerServer: 2}
	}
	if opts.Buffer <= 0 {
		opts.Buffer = 4
	}
	if opts.ProfileReps <= 0 {
		opts.ProfileReps = 3
	}
	cfg := protocol.Config{Factor: opts.Factor, Workers: 1}
	var pool *paillier.Pool
	if opts.Pool {
		// The client-side pool belongs to the key holder: its refill
		// workers (and its miss path) draw from the CRT sampler.
		pool = paillier.NewPrivatePool(key, nil, 64, 2)
		cfg.Pool = pool
	}
	// The model provider's linear kernel re-randomizes every output
	// ciphertext; a dedicated background pool keeps those r^n
	// exponentiations off the inference critical path.
	blind := paillier.NewPool(&key.PublicKey, nil, 64, 1)
	cfg.BlindPool = blind
	proto, err := protocol.Build(net, key, cfg)
	if err != nil {
		blind.Close()
		if pool != nil {
			pool.Close()
		}
		return nil, err
	}
	e := &Engine{
		Net: net, Protocol: proto, opts: opts, pool: pool, blind: blind,
		Servers: opts.Topology.Servers(), keyBits: key.Bits(),
		reg: obs.NewRegistry("engine/" + net.ModelName),
	}
	e.Protocol.Model.Instrument(e.reg)
	e.reg.GaugeFunc("pool.workers.alive", func() int64 {
		n := blind.AliveWorkers()
		if pool != nil {
			n += pool.AliveWorkers()
		}
		return n
	})

	// Offline profiling (Section IV-C): execute each merged stage once
	// per rep with a single thread and record T_i — unless a previous
	// run's profile was supplied.
	var times []float64
	if opts.ProfiledTimes != nil {
		if len(opts.ProfiledTimes) != len(proto.Merged) {
			return nil, fmt.Errorf("core: %d profiled times for %d merged stages", len(opts.ProfiledTimes), len(proto.Merged))
		}
		times = opts.ProfiledTimes
		e.EncryptTime = opts.ProfiledEncrypt
	} else {
		sample := opts.ProfileSample
		if sample == nil {
			sample = tensor.Zeros(net.InputShape...)
		}
		times, err = e.profile(sample, opts.ProfileReps)
		if err != nil {
			return nil, fmt.Errorf("core: offline profiling: %w", err)
		}
	}
	e.Layers = make([]alloc.Layer, len(proto.Merged))
	for i, m := range proto.Merged {
		e.Layers[i] = alloc.Layer{Name: m.Name(), Linear: m.Kind == nn.Linear, Time: times[i]}
	}

	if opts.LoadBalance {
		e.Plan, err = alloc.Solve(e.Layers, e.Servers, alloc.Options{})
	} else {
		e.Plan, err = alloc.Even(e.Layers, e.Servers)
	}
	if err != nil {
		return nil, fmt.Errorf("core: resource allocation: %w", err)
	}
	if err := e.applyPlan(); err != nil {
		return nil, err
	}
	// Backend planning last: the ILP picks one crypto backend per linear
	// round under the profile's rules (empty profile = privacy-max = all
	// Paillier, the legacy behavior).
	e.Backends, err = proto.ApplyProfile(opts.Profile, opts.ClearBoundary)
	if err != nil {
		return nil, fmt.Errorf("core: backend planning: %w", err)
	}
	if opts.MaxInFlight > 0 || opts.ShedLatency > 0 {
		e.shed = protocol.NewShedder(protocol.ShedConfig{
			MaxInFlight:   int64(opts.MaxInFlight),
			LatencyTarget: opts.ShedLatency,
			Registry:      e.reg,
		})
	}
	e.life = protocol.NewLifecycle(proto.Model, protocol.SessionConfig{Shed: e.shed, Registry: e.reg})
	return e, nil
}

// Close stops the serving runtime (if up) and releases background
// resources (the blinding pools).
func (e *Engine) Close() {
	_ = e.Shutdown()
	if e.pool != nil {
		e.pool.Close()
	}
	if e.blind != nil {
		e.blind.Close()
	}
}

// Registry exposes the engine's metrics registry. Every pipeline built
// by Pipeline/InferStream publishes its per-stage latency histograms and
// queue-depth gauges here, so histograms accumulate across runs.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Stats returns a point-in-time snapshot of the engine's metrics — the
// view cmd tools print and the metrics endpoint serves.
func (e *Engine) Stats() obs.Snapshot { return e.reg.Snapshot() }

// profile measures per-merged-stage times by walking the protocol rounds
// sequentially with single-threaded stages. It also records the input
// encryption time (step 1.1), which the allocation does not cover but
// the latency model needs.
func (e *Engine) profile(sample *tensor.Dense, reps int) ([]float64, error) {
	merged := e.Protocol.Merged
	times := make([]float64, len(merged))
	e.EncryptTime = 0
	for rep := 0; rep < reps; rep++ {
		encStart := time.Now()
		env, err := e.Protocol.Data.EncryptMetered(uint64(1_000_000+rep), sample, nil)
		e.EncryptTime += time.Since(encStart).Seconds()
		if err != nil {
			return nil, err
		}
		rounds := e.Protocol.Rounds()
		mi := 0
		for r := 0; r < rounds; r++ {
			start := time.Now()
			env, _, err = e.Protocol.Model.ProcessLinearMetered(r, env, nil)
			if err != nil {
				return nil, err
			}
			times[mi] += time.Since(start).Seconds()
			mi++
			start = time.Now()
			env, err = e.Protocol.Data.ProcessNonLinearMetered(r, env, nil)
			if err != nil {
				return nil, err
			}
			times[mi] += time.Since(start).Seconds()
			mi++
		}
		e.Protocol.Model.Forget(uint64(1_000_000 + rep))
	}
	for i := range times {
		times[i] /= float64(reps)
	}
	e.EncryptTime /= float64(reps)
	return times, nil
}

// SimStages converts the engine's profiled stage times, allocation plan,
// and partitioning configuration into the discrete-event latency model's
// stage list (see internal/simulate): an encrypt stage followed by the
// merged primitive layers. Linear stages carry the communication volume
// of the configured partitioning mode.
func (e *Engine) SimStages() ([]simulate.Stage, error) {
	var stages []simulate.Stage
	// The input encryption stage parallelizes on the data provider; give
	// it the first non-linear stage's thread allocation.
	encThreads := 1
	for i, m := range e.Protocol.Merged {
		if m.Kind == nn.NonLinear {
			encThreads = e.Plan.Threads[i]
			break
		}
	}
	stages = append(stages, simulate.Stage{Name: "encrypt", Base: e.EncryptTime, Threads: encThreads})
	li := 0
	for i, m := range e.Protocol.Merged {
		s := simulate.Stage{Name: m.Name(), Base: e.Layers[i].Time, Threads: e.Plan.Threads[i]}
		if m.Kind == nn.Linear {
			withPart, withoutPart, err := e.Protocol.Model.StageComm(li, e.Plan.Threads[i])
			if err != nil {
				return nil, err
			}
			if e.opts.TensorPartition {
				s.CommElems = withPart
			} else {
				s.CommElems = withoutPart
			}
			li++
		}
		stages = append(stages, s)
	}
	return stages, nil
}

// Simulate predicts the deployment's latency for a batch of the given
// size using the profiled stage costs, the allocation plan, and the
// measured per-element transfer cost (see internal/simulate's package
// comment for the single-CPU-host substitution rationale).
func (e *Engine) Simulate(requests int) (*simulate.Result, error) {
	stages, err := e.SimStages()
	if err != nil {
		return nil, err
	}
	perElem := simulate.PerElementTransferCost(2 * e.keyBits)
	return simulate.Pipeline(stages, requests, perElem)
}

// applyPlan pushes the allocation's thread counts into the protocol's
// stages, enabling tensor partitioning on linear stages when configured.
func (e *Engine) applyPlan() error {
	li, ni := 0, 0
	for i, m := range e.Protocol.Merged {
		threads := e.Plan.Threads[i]
		if m.Kind == nn.Linear {
			if err := e.Protocol.Model.SetStagePlan(li, threads, e.opts.TensorPartition, e.opts.TensorPartition); err != nil {
				return err
			}
			li++
		} else {
			if err := e.Protocol.Data.SetStageThreads(ni, threads); err != nil {
				return err
			}
			ni++
		}
	}
	return nil
}

// StageReport describes one merged stage's deployment in a readable
// form: profiled time, assigned server, threads, and (for linear stages)
// the per-request communication volumes of the two partitioning modes.
type StageReport struct {
	Name    string
	Linear  bool
	Time    float64 // profiled seconds per request, single thread
	Server  string
	Threads int
	// Backend names the crypto backend the ILP assigned to this round
	// (linear stages only; empty for non-linear stages).
	Backend string
	// CommWithPart / CommWithoutPart are in ciphertext elements per
	// request (zero for non-linear stages).
	CommWithPart    int
	CommWithoutPart int
}

// Report summarizes the engine's plan per stage — what cmd tools and
// examples print for operators.
func (e *Engine) Report() ([]StageReport, error) {
	out := make([]StageReport, len(e.Protocol.Merged))
	li := 0
	for i, m := range e.Protocol.Merged {
		r := StageReport{
			Name:    m.Name(),
			Linear:  m.Kind == nn.Linear,
			Time:    e.Layers[i].Time,
			Server:  e.Servers[e.Plan.ServerOf[i]].Name,
			Threads: e.Plan.Threads[i],
		}
		if r.Linear {
			with, without, err := e.Protocol.Model.StageComm(li, r.Threads)
			if err != nil {
				return nil, err
			}
			r.CommWithPart, r.CommWithoutPart = with, without
			if e.Backends != nil && li < len(e.Backends.Assignment) {
				r.Backend = string(e.Backends.Assignment[li])
			}
			li++
		}
		out[i] = r
	}
	return out, nil
}

// InferOne runs a single request through the full collaborative workflow
// (sequential round walk), returning the result and the wall-clock
// latency.
func (e *Engine) InferOne(req uint64, x *tensor.Dense) (*tensor.Dense, time.Duration, error) {
	start := time.Now()
	out, err := e.Protocol.Infer(req, x)
	return out, time.Since(start), err
}

// Pipeline builds the streaming deployment: an encrypt stage followed by
// alternating linear (model-provider) and non-linear (data-provider)
// stages, connected by in-process edges. Payloads are *protocol.Envelope
// (submit *tensor.Dense inputs).
func (e *Engine) Pipeline() (*stream.Pipeline, error) {
	handlers := []stream.Handler{
		stream.HandlerFunc{StageName: "encrypt", Fn: func(_ context.Context, m *stream.Message) (*stream.Message, error) {
			x, ok := m.Payload.(*tensor.Dense)
			if !ok {
				return nil, fmt.Errorf("core: encrypt stage expects *tensor.Dense, got %T", m.Payload)
			}
			env, err := e.Protocol.Data.EncryptMetered(m.Seq, x, nil)
			if err != nil {
				return nil, err
			}
			return &stream.Message{Payload: env}, nil
		}},
	}
	rounds := e.Protocol.Rounds()
	for r := 0; r < rounds; r++ {
		r := r
		handlers = append(handlers, stream.HandlerFunc{
			StageName: fmt.Sprintf("linear-%d", r),
			Fn: func(_ context.Context, m *stream.Message) (*stream.Message, error) {
				env, ok := m.Payload.(*protocol.Envelope)
				if !ok {
					return nil, fmt.Errorf("core: linear stage expects envelope, got %T", m.Payload)
				}
				out, _, err := e.Protocol.Model.ProcessLinearMetered(r, env, nil)
				if err != nil {
					return nil, err
				}
				return &stream.Message{Payload: out}, nil
			},
		})
		handlers = append(handlers, stream.HandlerFunc{
			StageName: fmt.Sprintf("nonlinear-%d", r),
			Fn: func(_ context.Context, m *stream.Message) (*stream.Message, error) {
				env, ok := m.Payload.(*protocol.Envelope)
				if !ok {
					return nil, fmt.Errorf("core: non-linear stage expects envelope, got %T", m.Payload)
				}
				out, err := e.Protocol.Data.ProcessNonLinearMetered(r, env, nil)
				if err != nil {
					return nil, err
				}
				return &stream.Message{Payload: out}, nil
			},
		})
	}
	p, err := stream.NewPipeline(e.opts.Buffer, handlers...)
	if err != nil {
		return nil, err
	}
	p.Instrument(e.reg)
	return p, nil
}

// StreamStats summarizes a streaming run.
type StreamStats struct {
	Requests int
	// Makespan is total wall-clock time from first submit to last
	// result.
	Makespan time.Duration
	// EffectiveLatency is Makespan divided by Requests: the steady-state
	// per-request latency of the pipelined deployment, the quantity the
	// paper's Exp#2–4 report for the streaming variants.
	EffectiveLatency time.Duration
	// FirstLatency is the end-to-end latency of the first request (no
	// pipelining benefit).
	FirstLatency time.Duration
	// Traces holds each completed request's per-stage latency breakdown
	// (queue wait + busy per stage), indexed by input position — the
	// raw material for the Table IV/V-style percentile tables.
	Traces []*stream.Trace
	// Errors holds each request's failure (nil on success), indexed by
	// input position. A failed request does not abort the batch: its
	// result slot stays nil and the other requests complete normally.
	Errors []error
	// Failed counts the non-nil entries of Errors.
	Failed int
}

// InferStream runs a batch of inputs through the serving runtime and
// returns results indexed by input position plus timing statistics. It
// is a thin batch wrapper over Serve/Submit: if the engine is not
// already serving, an ephemeral runtime is started for the batch and
// fully shut down afterwards (no stage goroutines survive, even on
// error paths). Per-request failures land in StreamStats.Errors; the
// returned error covers only runtime-level failures.
func (e *Engine) InferStream(ctx context.Context, inputs []*tensor.Dense) ([]*tensor.Dense, *StreamStats, error) {
	if len(inputs) == 0 {
		return nil, nil, errors.New("core: no inputs")
	}
	if !e.Serving() {
		if err := e.Serve(ctx); err != nil {
			return nil, nil, err
		}
		defer e.Shutdown()
	}
	start := time.Now()
	results := make([]*tensor.Dense, len(inputs))
	traces := make([]*stream.Trace, len(inputs))
	errs := make([]error, len(inputs))
	var (
		mu           sync.Mutex
		firstLatency time.Duration
		wg           sync.WaitGroup
	)
	for i, x := range inputs {
		i, x := i, x
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, trace, err := e.Submit(ctx, x)
			mu.Lock()
			defer mu.Unlock()
			results[i], traces[i], errs[i] = out, trace, err
			if firstLatency == 0 {
				firstLatency = time.Since(start)
			}
		}()
	}
	wg.Wait()
	makespan := time.Since(start)
	stats := &StreamStats{
		Requests:         len(inputs),
		Makespan:         makespan,
		EffectiveLatency: makespan / time.Duration(len(inputs)),
		FirstLatency:     firstLatency,
		Traces:           traces,
		Errors:           errs,
	}
	var runtimeErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		stats.Failed++
		// A dead runtime (not a per-request failure) aborts the batch.
		var reqErr *RequestError
		if !errors.As(err, &reqErr) && runtimeErr == nil {
			runtimeErr = err
		}
	}
	return results, stats, runtimeErr
}
