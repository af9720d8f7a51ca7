// Package core assembles PP-Stream: it takes a trained network, selects
// or accepts a scaling factor, builds the hybrid privacy-preserving
// protocol, estimates each merged primitive layer's single-thread time
// from its exact operation count (protocol.Protocol.StageCosts priced by
// paillier.UnitCosts) instead of the paper's offline profiling, solves
// the load-balanced resource allocation, and maps the alternating stages
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
	// LoadBalance selects alloc.Solve (the optimum of the paper's Eqs 4–8)
	// over alloc.Even.
	LoadBalance bool
	// TensorPartition picks which of a linear stage's two communication
	// volumes (protocol.ModelProvider.StageComm) the simulator charges:
	// the partitioned one (Section IV-D) or the whole-input baseline. It
	// changes no execution — in one process every thread reads its stage's
	// input in place, and qnn.ApplyStage splits the outputs either way.
	TensorPartition bool
	// ProfileReps is ignored: stage costs are estimated from exact
	// operation counts, not profiled. It stays until bench/ stops setting
	// it.
	ProfileReps int
	// ProfileSample is ignored, like ProfileReps.
	ProfileSample *tensor.Dense
	// Window is the serving runtime's window on both sides of its
	// session: the client's bound on concurrently in-flight requests and
	// each linear round's queue (protocol.ClientOptions.Window and
	// protocol.SessionConfig.Window); <= 0 uses their defaults.
	Window int
	// Profile selects the per-round crypto-backend posture (latency,
	// privacy-max, mixed). Empty means privacy-max: every round under
	// Paillier, the paper's original protocol.
	Profile backend.Profile
	// ClearBoundary is the clear boundary the caller sets: the first
	// linear round allowed to run plaintext. The engine does not certify
	// it; internal/leakage.CertifyClearBoundary measures one offline.
	// <= 0 means no round may run in the clear regardless of profile.
	ClearBoundary int
}

// Engine is a ready-to-run PP-Stream deployment for one model.
type Engine struct {
	Protocol *protocol.Protocol
	Plan     *alloc.Plan
	Layers   []alloc.Layer
	Servers  []alloc.Server
	// Backends is the solved per-round crypto-backend assignment for
	// Options.Profile (privacy-max when unset).
	Backends *backend.Plan
	// EncryptTime is the estimated input encryption time (seconds per
	// request, single thread): its operation count priced at the key's
	// measured unit costs, as every Layers[i].Time is.
	EncryptTime float64
	opts        Options
	blind       *paillier.Pool
	keyBits     int
	reg         *obs.Registry

	// serveMu guards the persistent serving runtime (see serve.go).
	serveMu sync.Mutex
	srv     *serving
}

// NewEngine builds the engine: protocol construction, stage pricing,
// resource allocation, and per-stage plan application.
func NewEngine(net *nn.Network, key *paillier.PrivateKey, opts Options) (*Engine, error) {
	if opts.Factor <= 0 {
		return nil, errors.New("core: Options.Factor is required (run the Exp#1 scaling selection)")
	}
	if opts.Topology.ModelServers == 0 && opts.Topology.DataServers == 0 {
		opts.Topology = Topology{ModelServers: 1, DataServers: 1, CoresPerServer: 2}
	}
	proto, err := protocol.Build(net, key, protocol.Config{Factor: opts.Factor, Workers: 1})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Protocol: proto, opts: opts,
		Servers: opts.Topology.Servers(), keyBits: key.Bits(),
		reg: obs.NewRegistry("engine/" + net.ModelName),
	}
	if err := e.plan(); err != nil {
		return nil, err
	}
	// The model provider's one blinding pool, sized to the backend plan
	// and the window: InferOne and every session Serve opens draw from it.
	window := opts.Window
	if window <= 0 {
		window = protocol.DefaultSessionWindow
	}
	e.blind = proto.Model.NewBlindPool(window, e.reg)
	return e, nil
}

// plan prices the stages, allocates servers and threads to them, applies
// the allocation, and picks the per-round crypto backends.
func (e *Engine) plan() error {
	// T_i for the allocation (Section IV-C): each merged stage's exact
	// single-thread operation count, priced at this key size's unit costs.
	// Every round is priced on Paillier: the backend plan comes last.
	encrypt, counts := e.Protocol.StageCosts()
	units, err := backend.MeasureUnitCosts(e.keyBits)
	if err != nil {
		return fmt.Errorf("core: measuring unit costs: %w", err)
	}
	e.EncryptTime = units.Price(encrypt)
	e.Layers = make([]alloc.Layer, len(e.Protocol.StageNames))
	for i, name := range e.Protocol.StageNames {
		e.Layers[i] = alloc.Layer{Name: name, Linear: i%2 == 0, Time: units.Price(counts[i])}
	}

	if e.opts.LoadBalance {
		e.Plan, err = alloc.Solve(e.Layers, e.Servers)
	} else {
		e.Plan, err = alloc.Even(e.Layers, e.Servers)
	}
	if err != nil {
		return fmt.Errorf("core: resource allocation: %w", err)
	}
	if err := e.applyPlan(); err != nil {
		return err
	}
	// Backend planning last: an exact search picks one crypto backend per
	// linear round under the profile's rules (empty profile = privacy-max =
	// all Paillier, the legacy behavior).
	e.Backends, err = e.Protocol.ApplyProfile(e.opts.Profile, e.opts.ClearBoundary)
	if err != nil {
		return fmt.Errorf("core: backend planning: %w", err)
	}
	return nil
}

// Close stops the serving runtime (if up) and releases background
// resources (the blinding pool).
func (e *Engine) Close() {
	_ = e.Shutdown()
	e.blind.Close()
}

// Registry exposes the engine's metrics registry. Every runtime Serve
// starts publishes its session's metrics here, so histograms accumulate
// across runs. It keeps no trailing windows until a reader switches them
// on (obs.Registry.KeepWindows).
func (e *Engine) Registry() *obs.Registry { return e.reg }

// SimStages converts the engine's estimated stage times, allocation plan,
// and partitioning configuration into the discrete-event latency model's
// stage list (see internal/simulate): an encrypt stage followed by the
// merged primitive layers. Linear stages carry the communication volume
// of the configured partitioning mode.
func (e *Engine) SimStages() ([]simulate.Stage, error) {
	// The input encryption runs on the data provider's threads for it: the
	// first non-linear stage's allocation.
	stages := []simulate.Stage{{Name: "encrypt", Base: e.EncryptTime, Threads: e.Protocol.Data.EncryptThreads(0)}}
	li := 0
	for i, l := range e.Layers {
		s := simulate.Stage{Name: l.Name, Base: l.Time, Threads: e.Plan.Threads[i]}
		if l.Linear {
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
// size using the estimated stage costs, the allocation plan, and the
// key size's measured per-element transfer cost, UnitCosts.Transfer (see
// internal/simulate's package comment for the single-CPU-host
// substitution rationale).
func (e *Engine) Simulate(requests int) (*simulate.Result, error) {
	stages, err := e.SimStages()
	if err != nil {
		return nil, err
	}
	units, err := backend.MeasureUnitCosts(e.keyBits)
	if err != nil {
		return nil, err
	}
	return simulate.Pipeline(stages, requests, units.Transfer)
}

// applyPlan pushes the allocation's thread counts into the protocol's
// stages.
func (e *Engine) applyPlan() error {
	li, ni := 0, 0
	for i, l := range e.Layers {
		threads := e.Plan.Threads[i]
		if l.Linear {
			if err := e.Protocol.Model.SetStageThreads(li, threads); err != nil {
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
// form: estimated time, assigned server, threads, and (for linear stages)
// the per-request communication volumes of the two partitioning modes.
type StageReport struct {
	Name   string
	Linear bool
	// Time is the estimated seconds per request on one thread: the
	// stage's exact operation count priced at the key's unit costs.
	Time    float64
	Server  string
	Threads int
	// Backend names the crypto backend the backend plan assigned to this round
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
	out := make([]StageReport, len(e.Layers))
	li := 0
	for i, l := range e.Layers {
		r := StageReport{
			Name:    l.Name,
			Linear:  l.Linear,
			Time:    l.Time,
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
	// FirstLatency is the end-to-end latency of the first request to
	// complete (no pipelining benefit); zero when none did.
	FirstLatency time.Duration
	// Traces holds each completed request's cross-party trace (nil for a
	// failed one), indexed by input position — the raw material for the
	// Table IV/V-style percentile tables (obs.Breakdown).
	Traces []*obs.TraceTree
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
	switch err := e.Serve(ctx); {
	case err == nil:
		defer e.Shutdown()
	case !errors.Is(err, errServing):
		return nil, nil, err
	}
	start := time.Now()
	results := make([]*tensor.Dense, len(inputs))
	traces := make([]*obs.TraceTree, len(inputs))
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
			out, trace, err := e.infer(ctx, x)
			mu.Lock()
			defer mu.Unlock()
			results[i], traces[i], errs[i] = out, trace, err
			if err == nil && firstLatency == 0 {
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
		// A dead runtime or ctx (not a per-request failure) aborts the batch.
		if runtimeErr == nil && (errors.Is(err, protocol.ErrSessionDown) || ctx.Err() != nil) {
			runtimeErr = err
		}
	}
	return results, stats, runtimeErr
}
