// Package protocol implements PP-Stream's hybrid privacy-preserving
// inference workflow (paper Section III, Figure 3) between the two
// honest-but-curious parties:
//
//   - the model provider executes all linear operations homomorphically
//     over Paillier ciphertexts and obfuscates tensors (random position
//     permutation) before they return to the data provider;
//   - the data provider encrypts its input, and for each non-linear stage
//     decrypts the (permuted) tensor, applies the element-wise non-linear
//     functions in plaintext, re-encrypts, and returns it.
//
// The last round skips obfuscation so the data provider can evaluate the
// final position-dependent SoftMax and read the inference result
// (Section III-A); the model parameters of the last linear stage remain
// safe because the data provider never sees that stage's de-obfuscated
// input (Section III-D).
package protocol

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"sync"
	"time"

	"ppstream/internal/backend"
	"ppstream/internal/nn"
	"ppstream/internal/obfuscate"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/partition"
	"ppstream/internal/qnn"
	"ppstream/internal/scaling"
	"ppstream/internal/secshare"
	"ppstream/internal/tensor"
)

// Envelope is the in-process message flowing between protocol stages:
// one round's activation tensor in its backend's representation plus the
// scale exponent, or the final plaintext result.
type Envelope struct {
	// Req identifies the inference request.
	Req uint64
	// Backend names the representation this envelope carries; empty means
	// paillier-he (the legacy protocol, and frames from peers predating
	// backend negotiation).
	Backend backend.Kind
	// CT is the encrypted tensor (paillier-he rounds). Between the model
	// and data provider it is obfuscated except in the last round. On the
	// way to the model provider it holds one value per ciphertext; on the
	// way back it is a packed reply (SlotBits != 0).
	CT *paillier.CipherTensor
	// SlotBits and Shape describe a packed reply: CT is then the vector of
	// ⌈Shape.Size()/S⌉ ciphertexts paillier.Evaluator.Pack built, each
	// carrying up to S = PublicKey.Slots(SlotBits) values of the logical
	// tensor Shape in SlotBits-wide slots.
	SlotBits int
	Shape    tensor.Shape
	// Sh is the additively shared tensor (ss-gc rounds).
	Sh *tensor.Tensor[secshare.Shares]
	// Plain is the plaintext integer tensor (clear rounds past the
	// certified boundary).
	Plain *tensor.Tensor[*big.Int]
	// Exp is the plaintext scale exponent: values are real·F^Exp.
	Exp int
	// Obfuscated records whether the element positions are permuted.
	Obfuscated bool
	// Result is the final inference output (last stage only).
	Result *tensor.Dense
}

// BackendKind resolves the envelope's backend, mapping the empty legacy
// value to paillier-he.
func (env *Envelope) BackendKind() backend.Kind {
	if env.Backend == "" {
		return backend.PaillierHE
	}
	return env.Backend
}

// payload views the envelope's activation tensor as a backend payload,
// verifying the representation matching the declared kind is present. A
// packed reply is not a round input: the kernel needs one value per
// ciphertext.
func (env *Envelope) payload() (*backend.Payload, error) {
	if env.SlotBits != 0 {
		return nil, fmt.Errorf("protocol: a packed reply cannot be a round input")
	}
	p := &backend.Payload{Kind: env.BackendKind(), CT: env.CT, Sh: env.Sh, Plain: env.Plain, Exp: env.Exp}
	if _, err := p.Shape(); err != nil {
		return nil, err
	}
	return p, nil
}

// SlotError reports a key too small to carry one value of a linear
// stage's output bound: the stage's replies could not be decoded, so the
// roles refuse to build.
type SlotError struct {
	Stage    string
	SlotBits int
	KeyBits  int
}

func (e *SlotError) Error() string {
	return fmt.Sprintf("protocol: stage %s needs %d-bit reply slots, more than a %d-bit key holds", e.Stage, e.SlotBits, e.KeyBits)
}

// InputRangeError reports an inference input the data provider refuses to
// encrypt: element Index is NaN, infinite, or larger in magnitude than
// Max. Max is the network's declared input domain (nn.Network.InputMax)
// when Declared — the reply slot widths hold only inside it — and
// otherwise the magnitude at which Value·F no longer fits the int64 the
// protocol encrypts.
type InputRangeError struct {
	Index    int
	Value    float64
	Max      float64
	Declared bool
}

func (e *InputRangeError) Error() string {
	if e.Declared {
		return fmt.Sprintf("protocol: input element %d = %v is outside the model's declared input domain ±%v", e.Index, e.Value, e.Max)
	}
	return fmt.Sprintf("protocol: input element %d = %v does not fit int64 at the session's scaling factor (|x| must stay below %v)", e.Index, e.Value, e.Max)
}

// Config parameterizes protocol construction.
type Config struct {
	// Factor is the parameter scaling factor F (from scaling.SelectFactor).
	Factor int64
	// Workers is the default thread count used by stages when no
	// per-stage plan overrides it.
	Workers int
	// Pool, when non-nil, provides precomputed encryption blinding for
	// the data provider's encryption and re-encryption steps. It belongs
	// to the key holder: build it with paillier.NewPrivatePool. Without
	// one the data provider computes each factor inline from its key.
	Pool *paillier.Pool
	// BlindPool, when non-nil, supplies the model provider's output
	// re-randomization factors (the kernel blinds every ciphertext before
	// it leaves the provider). Falls back to inline crypto/rand factors
	// from the public key.
	BlindPool *paillier.Pool
}

// Protocol binds a model provider and a data provider for one scaled
// network. Stages alternate linear (model provider) and non-linear (data
// provider), matching the merged primitive layers.
type Protocol struct {
	Model *ModelProvider
	Data  *DataProvider
	// Merged is the alternating stage list the roles were built from.
	Merged []*nn.PrimitiveLayer
	// life finishes Infer's requests; it has no shedder and no sinks.
	life *Lifecycle
}

// validateWorkflow merges the network and checks the workflow's
// structural requirements (alternation, linear start, non-linear finish,
// element-wise intermediate non-linear stages).
func validateWorkflow(net *nn.Network) ([]*nn.PrimitiveLayer, error) {
	merged, err := nn.Merge(net)
	if err != nil {
		return nil, err
	}
	if err := nn.CheckAlternating(merged); err != nil {
		return nil, err
	}
	if err := nn.ProtocolShape(merged); err != nil {
		return nil, err
	}
	// Middle non-linear stages run on permuted tensors: they must be
	// element-wise (Section III-C). The final stage may contain SoftMax.
	for i, m := range merged {
		if m.Kind == nn.NonLinear && i != len(merged)-1 && !m.ElementWiseOnly() {
			return nil, fmt.Errorf("protocol: intermediate non-linear stage %s contains position-dependent operations; replace MaxPool (nn.ReplaceMaxPool) or move SoftMax to the last layer", m.Name())
		}
	}
	return merged, nil
}

// walkStages is the shared front of both role builders: it checks the
// configuration and the workflow shape, then runs the one stage walk
// (qnn.Walk) that quantizes every linear stage at cfg.Factor and chains
// the network's declared input domain into each stage's reply slot width.
// A key that cannot hold one slot of some stage is a *SlotError. The
// workflow alternates from a linear start to a non-linear finish, so round
// r's linear stage is stages[r] = merged[2r] and its non-linear stage
// merged[2r+1].
func walkStages(net *nn.Network, pk *paillier.PublicKey, cfg *Config) (merged []*nn.PrimitiveLayer, stages []qnn.Stage, err error) {
	if cfg.Factor <= 0 {
		return nil, nil, fmt.Errorf("protocol: scaling factor %d must be positive", cfg.Factor)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if err := pk.Validate(); err != nil {
		return nil, nil, err
	}
	if merged, err = validateWorkflow(net); err != nil {
		return nil, nil, err
	}
	if stages, err = qnn.Walk(merged, net.InputMax, cfg.Factor); err != nil {
		return nil, nil, err
	}
	for r, st := range stages {
		if w := st.SlotBits(); pk.Slots(w) < 1 {
			return nil, nil, &SlotError{Stage: merged[2*r].Name(), SlotBits: w, KeyBits: pk.Bits()}
		}
	}
	return merged, stages, nil
}

// BuildModelProvider constructs the model-provider role alone: it needs
// the network (its own weights) and only the data provider's PUBLIC key.
// This is the entry point for a real split deployment (cmd/ppserver).
func BuildModelProvider(net *nn.Network, pk *paillier.PublicKey, cfg Config) (*ModelProvider, error) {
	merged, stages, err := walkStages(net, pk, &cfg)
	if err != nil {
		return nil, err
	}
	return newModelProvider(merged, stages, pk, cfg), nil
}

func newModelProvider(merged []*nn.PrimitiveLayer, stages []qnn.Stage, pk *paillier.PublicKey, cfg Config) *ModelProvider {
	var evOpts []paillier.EvalOption
	if blind := cfg.BlindPool; blind != nil {
		evOpts = append(evOpts, paillier.WithBlinder(blind))
	}
	mp := &ModelProvider{
		pk:      pk,
		eval:    paillier.NewEvaluator(pk, evOpts...),
		factor:  cfg.Factor,
		workers: cfg.Workers,
		state:   map[uint64]*obfuscate.Rounds{},
	}
	for r, st := range stages {
		m, next := merged[2*r], merged[2*r+1]
		// The ss-gc backend pays a garbled-circuit ReLU on the nonlinear
		// side of intermediate rounds; the final nonlinear stage runs in
		// the clear on the reconstructed result, so it never garbles.
		reluFollows := false
		if r < len(stages)-1 && len(next.Layers) > 0 {
			_, reluFollows = next.Layers[0].(*nn.ReLU)
		}
		mp.stages = append(mp.stages, &linearStage{
			name:        m.Name(),
			ops:         st.Ops,
			slotBits:    st.SlotBits(),
			inShape:     m.InShape.Clone(),
			outShape:    m.OutShape.Clone(),
			threads:     cfg.Workers,
			reluFollows: reluFollows,
		})
	}
	return mp
}

// BuildDataProvider constructs the data-provider role alone: it needs
// the private key and the network ARCHITECTURE — layer kinds, shapes and
// the declared input domain — so it can be built from a skeleton without
// the vendor's parameters. Whatever linear weights net does carry are used
// for one thing: the slot width their chained output bound needs, below
// which a packed reply is refused (a zeroed skeleton makes that check
// vacuous).
func BuildDataProvider(net *nn.Network, sk *paillier.PrivateKey, cfg Config) (*DataProvider, error) {
	merged, stages, err := walkStages(net, &sk.PublicKey, &cfg)
	if err != nil {
		return nil, err
	}
	return newDataProvider(net.InputMax, merged, stages, sk, cfg), nil
}

func newDataProvider(inputMax float64, merged []*nn.PrimitiveLayer, stages []qnn.Stage, sk *paillier.PrivateKey, cfg Config) *DataProvider {
	dp := &DataProvider{
		sk:       sk,
		factor:   cfg.Factor,
		inputMax: inputMax,
		workers:  cfg.Workers,
		blind:    sk.Blinder(nil),
	}
	if cfg.Pool != nil {
		dp.blind = cfg.Pool
	}
	for r, st := range stages {
		m := merged[2*r+1]
		dp.stages = append(dp.stages, &nonLinearStage{
			layers:   m.Layers,
			slotBits: st.SlotBits(),
			inShape:  m.InShape.Clone(),
			outShape: m.OutShape.Clone(),
			threads:  cfg.Workers,
		})
	}
	return dp
}

// Build validates the network's protocol shape, quantizes its linear
// stages at cfg.Factor, and wires the two roles in one process (tests,
// the CipherBase baseline, and the single-host engine). The private key
// stays inside the data provider; the model provider receives only the
// public key.
func Build(net *nn.Network, key *paillier.PrivateKey, cfg Config) (*Protocol, error) {
	merged, stages, err := walkStages(net, &key.PublicKey, &cfg)
	if err != nil {
		return nil, err
	}
	mp := newModelProvider(merged, stages, &key.PublicKey, cfg)
	dp := newDataProvider(net.InputMax, merged, stages, key, cfg)
	return &Protocol{Model: mp, Data: dp, Merged: merged, life: NewLifecycle(mp, SessionConfig{})}, nil
}

// BuildAuto selects the scaling factor with the paper's algorithm on the
// provided training subset, then builds the protocol.
func BuildAuto(net *nn.Network, key *paillier.PrivateKey, xs []*tensor.Dense, ys []int, cfg Config) (*Protocol, *scaling.Result, error) {
	res, err := scaling.SelectFactor(net, xs, ys, 0)
	if err != nil {
		return nil, nil, err
	}
	cfg.Factor = res.Factor
	p, err := Build(net, key, cfg)
	if err != nil {
		return nil, nil, err
	}
	return p, res, nil
}

// Rounds returns the number of linear/non-linear round pairs.
func (p *Protocol) Rounds() int { return len(p.Model.stages) }

// ApplyPlan installs one backend assignment on both roles of an
// in-process protocol. A nil plan restores the legacy all-Paillier
// behavior on both sides.
func (p *Protocol) ApplyPlan(plan []backend.Kind) error {
	if err := p.Model.SetBackendPlan(plan); err != nil {
		return err
	}
	if err := p.Data.SetBackendPlan(plan); err != nil {
		// Keep the two roles consistent: roll the model side back.
		_ = p.Model.SetBackendPlan(nil)
		return err
	}
	return nil
}

// ApplyProfile solves the backend assignment for the given deployment
// profile and certified clear boundary (rounds, i.e. no clear execution,
// when boundary <= 0) and installs it on both roles, returning the plan.
func (p *Protocol) ApplyProfile(profile backend.Profile, boundary int) (*backend.Plan, error) {
	if boundary <= 0 {
		boundary = p.Rounds()
	}
	plan, err := backend.PlanFor(profile, p.Model.LayerInfos(), boundary, p.Model.pk.N.BitLen())
	if err != nil {
		return nil, err
	}
	if err := p.ApplyPlan(plan.Assignment); err != nil {
		return nil, err
	}
	return plan, nil
}

// Infer runs the full collaborative workflow sequentially for one input:
// the reference execution used by tests, the CipherBase baseline, and
// offline profiling. The streaming engine (internal/core) runs the same
// per-stage methods inside pipeline stages.
func (p *Protocol) Infer(req uint64, x *tensor.Dense) (out *tensor.Dense, err error) {
	// No shedder: admission cannot fail.
	r, _ := p.life.Admit(req, "", time.Now())
	defer func() { p.life.Finish(r, err) }()
	env, err := p.Data.EncryptMetered(req, x, nil)
	if err != nil {
		return nil, err
	}
	for round := 0; round < p.Rounds(); round++ {
		if env, _, err = p.Model.ProcessLinearMetered(round, env, nil); err != nil {
			return nil, fmt.Errorf("protocol: round %d linear: %w", round, err)
		}
		if env, err = p.Data.ProcessNonLinearMetered(round, env, nil); err != nil {
			return nil, fmt.Errorf("protocol: round %d non-linear: %w", round, err)
		}
	}
	if env.Result == nil {
		return nil, fmt.Errorf("protocol: workflow ended without a result")
	}
	return env.Result, nil
}

// linearStage is one model-provider stage: quantized ops plus runtime
// configuration.
type linearStage struct {
	name     string
	ops      []qnn.Op
	inShape  tensor.Shape
	outShape tensor.Shape
	// threads is y_i from the resource allocation plan.
	threads int
	// inputPartition enables input tensor partitioning (conv stages).
	inputPartition bool
	// usePartitionExec routes execution through the partitioning
	// executor (physical per-thread input views); otherwise the stage
	// uses the shared-memory fast path.
	usePartitionExec bool
	// reluFollows marks that the intermediate nonlinear stage after this
	// round starts with ReLU (the ss-gc backend garbles there).
	reluFollows bool
	// slotBits is the reply slot width W (stageSlotBits), fixed at Build.
	slotBits int
}

// execStage views a linear stage as a backend stage description.
func (st *linearStage) execStage() *backend.Stage {
	return &backend.Stage{
		Ops:              st.ops,
		InShape:          st.inShape,
		OutShape:         st.outShape,
		Threads:          st.threads,
		InputPartition:   st.inputPartition,
		UsePartitionExec: st.usePartitionExec,
	}
}

// ModelProvider executes linear stages under the session's per-round
// backend plan (paillier-he unless a plan says otherwise) and manages
// per-request obfuscation state. It never sees the private key.
type ModelProvider struct {
	pk      *paillier.PublicKey
	eval    *paillier.Evaluator
	factor  int64
	workers int
	stages  []*linearStage

	mu      sync.Mutex
	state   map[uint64]*obfuscate.Rounds
	limiter *RateLimiter

	planMu sync.RWMutex
	plan   []backend.Kind
}

// PublicKey exposes the provider's encryption key.
func (mp *ModelProvider) PublicKey() *paillier.PublicKey { return mp.pk }

// Evaluator exposes the provider's homomorphic evaluation context (key,
// blinding supply, kernel configuration).
func (mp *ModelProvider) Evaluator() *paillier.Evaluator { return mp.eval }

// Instrument publishes the linear kernel's phase timings to reg as the
// "kernel.precompute" (per kernel call: the operation count, power
// tables when the call uses them, the batched inversion) and
// "kernel.dot" (per row: its numerator and denominator products)
// histograms.
func (mp *ModelProvider) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	pre := reg.Histogram("kernel.precompute")
	dot := reg.Histogram("kernel.dot")
	mp.eval.SetMetrics(paillier.KernelMetrics{Precompute: pre.Observe, Dot: dot.Observe})
}

// Stages returns the number of linear stages.
func (mp *ModelProvider) Stages() int { return len(mp.stages) }

// LayerInfos returns the planner's view of every linear round: the
// non-zero weight multiplication count, output size, how many reply
// ciphertexts those outputs pack into, and whether a garbled ReLU would
// follow — the inputs backend.PlanFor consumes.
func (mp *ModelProvider) LayerInfos() []backend.LayerInfo {
	out := make([]backend.LayerInfo, len(mp.stages))
	for r, st := range mp.stages {
		muls := 0
		shape := st.inShape
		for _, op := range st.ops {
			muls += qnn.MulCount(op, shape)
			if next, err := op.OutShape(shape); err == nil {
				shape = next
			}
		}
		outs := st.outShape.Size()
		out[r] = backend.LayerInfo{
			Name:        st.name,
			Muls:        muls,
			Outs:        outs,
			Replies:     mp.pk.PackedLen(outs, st.slotBits),
			SlotBits:    st.slotBits,
			ReluFollows: st.reluFollows,
		}
	}
	return out
}

// SetBackendPlan installs the session's per-round backend assignment.
// Round 0 must stay paillier-he: the raw input never leaves the data
// provider unencrypted. A nil plan restores the legacy all-Paillier
// behavior. Safe to call concurrently with round processing.
func (mp *ModelProvider) SetBackendPlan(plan []backend.Kind) error {
	if plan != nil {
		if len(plan) != len(mp.stages) {
			return fmt.Errorf("protocol: plan covers %d rounds, provider has %d", len(plan), len(mp.stages))
		}
		for r, k := range plan {
			if _, err := backend.For(k); err != nil {
				return fmt.Errorf("protocol: plan round %d: %w", r, err)
			}
		}
		if plan[0] != backend.PaillierHE {
			return fmt.Errorf("protocol: plan runs round 0 on %q — the input must stay encrypted", plan[0])
		}
		plan = append([]backend.Kind(nil), plan...)
	}
	mp.planMu.Lock()
	mp.plan = plan
	mp.planMu.Unlock()
	return nil
}

// BackendPlan returns a copy of the installed plan, nil when the
// provider runs the legacy all-Paillier protocol.
func (mp *ModelProvider) BackendPlan() []backend.Kind {
	mp.planMu.RLock()
	defer mp.planMu.RUnlock()
	return append([]backend.Kind(nil), mp.plan...)
}

// RoundBackend returns the backend round r executes on.
func (mp *ModelProvider) RoundBackend(r int) backend.Kind {
	mp.planMu.RLock()
	defer mp.planMu.RUnlock()
	if r >= 0 && r < len(mp.plan) {
		return mp.plan[r]
	}
	return backend.PaillierHE
}

// SetBlindPool replaces the evaluator's blinding supply — sessions call
// this once the backend plan is known, so the pool can be sized to the
// plan's actual Paillier rounds.
func (mp *ModelProvider) SetBlindPool(pool *paillier.Pool) {
	var opts []paillier.EvalOption
	if pool != nil {
		opts = append(opts, paillier.WithBlinder(pool))
	}
	mp.eval = paillier.NewEvaluator(mp.pk, opts...)
}

// SetStagePlan overrides stage r's thread count and partitioning mode
// (from the load-balanced allocation plan).
func (mp *ModelProvider) SetStagePlan(r, threads int, inputPartition, usePartitionExec bool) error {
	if r < 0 || r >= len(mp.stages) {
		return fmt.Errorf("protocol: no linear stage %d", r)
	}
	if threads < 1 {
		return fmt.Errorf("protocol: stage %d needs ≥ 1 thread", r)
	}
	mp.stages[r].threads = threads
	mp.stages[r].inputPartition = inputPartition
	mp.stages[r].usePartitionExec = usePartitionExec
	return nil
}

func (mp *ModelProvider) rounds(req uint64) *obfuscate.Rounds {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	r, ok := mp.state[req]
	if !ok {
		r = &obfuscate.Rounds{}
		mp.state[req] = r
	}
	return r
}

// Forget drops per-request obfuscation state once a request completes.
func (mp *ModelProvider) Forget(req uint64) {
	mp.mu.Lock()
	delete(mp.state, req)
	mp.mu.Unlock()
}

// LinearTiming splits one linear round's server-side work into the
// homomorphic kernel proper, the obfuscation bookkeeping around it
// (inverse permutation on entry plus permutation on exit), and packing
// the permuted rows into the blinded reply (paillier-he rounds only),
// feeding the "server-kernel" / "server-permute" / "server-pack" trace
// segments.
type LinearTiming struct {
	Kernel  time.Duration
	Permute time.Duration
	Pack    time.Duration
}

// cryptoSeed draws a secshare engine seed from crypto/rand: the triple
// dealer's stream must be unpredictable across rounds and requests.
func cryptoSeed() (int64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("protocol: share-engine seed: %w", err)
	}
	return int64(binary.BigEndian.Uint64(b[:])), nil
}

// ProcessLinearMetered executes round r's steps at the model provider:
// inverse obfuscation (rounds > 0), the round's linear stage on the
// backend the session plan assigns, and obfuscation (except the last
// round) — steps 1.3–1.4, 2.5–2.7, and 3.2–3.3 of Figure 3. It reports how
// the round's wall time divided between the execution kernel, permutation
// work and reply packing, and accounts crypto ops into m (nil skips
// accounting): the round runs through a metered view of the provider's
// evaluator so its op counts land in m without touching other requests
// sharing the evaluator; non-Paillier backends meter their share,
// garbled-circuit, and plaintext op counts into m directly.
func (mp *ModelProvider) ProcessLinearMetered(r int, env *Envelope, m *obs.CostMeter) (*Envelope, LinearTiming, error) {
	var tm LinearTiming
	ev := mp.eval
	if m != nil {
		ev = ev.WithCost(m)
	}
	if r < 0 || r >= len(mp.stages) {
		return nil, tm, fmt.Errorf("protocol: no linear stage %d", r)
	}
	st := mp.stages[r]
	kind := mp.RoundBackend(r)
	if got := env.BackendKind(); got != kind {
		return nil, tm, fmt.Errorf("protocol: round %d arrived as %q, session plan assigns %q", r, got, kind)
	}
	p, err := env.payload()
	if err != nil {
		return nil, tm, fmt.Errorf("protocol: linear stage %d: %w", r, err)
	}
	if r == 0 {
		if env.Obfuscated {
			return nil, tm, fmt.Errorf("protocol: first round input must not be obfuscated")
		}
		if err := mp.admit(); err != nil {
			return nil, tm, err
		}
	} else {
		if !env.Obfuscated {
			return nil, tm, fmt.Errorf("protocol: round %d input must be obfuscated", r)
		}
		permStart := time.Now()
		perm, err := mp.rounds(env.Req).Pop()
		if err != nil {
			return nil, tm, err
		}
		restored, err := p.InvertPerm(perm, st.inShape)
		if err != nil {
			return nil, tm, err
		}
		tm.Permute += time.Since(permStart)
		p = restored
	}
	if kind == backend.PaillierHE && p.Exp != 1 {
		// The reply's slot width is derived for inputs at scale F¹.
		return nil, tm, fmt.Errorf("protocol: linear stage %d input at scale exponent %d, want 1", r, p.Exp)
	}
	size, err := p.Size()
	if err != nil {
		return nil, tm, err
	}
	if size != st.inShape.Size() {
		return nil, tm, fmt.Errorf("protocol: linear stage %d input size %d, want %v", r, size, st.inShape)
	}
	shaped, err := p.Reshape(st.inShape)
	if err != nil {
		return nil, tm, err
	}

	be, err := backend.For(kind)
	if err != nil {
		return nil, tm, err
	}
	execEnv := &backend.ExecEnv{Eval: ev, Workers: st.threads, Meter: m}
	if kind == backend.SSGC {
		seed, err := cryptoSeed()
		if err != nil {
			return nil, tm, err
		}
		// A fresh engine per round frame: the dealer stream is not shared
		// across concurrent requests, so rounds never race on its state.
		execEnv.SS = secshare.NewEngine(seed)
	}
	kernelStart := time.Now()
	out, err := be.Execute(execEnv, st.execStage(), shaped)
	if err != nil {
		return nil, tm, err
	}
	tm.Kernel = time.Since(kernelStart)

	// Step 3.4: the last round goes out without obfuscation so SoftMax
	// can run.
	obfuscated := r < len(mp.stages)-1
	if obfuscated {
		outSize, err := out.Size()
		if err != nil {
			return nil, tm, err
		}
		permStart := time.Now()
		perm, err := mp.rounds(env.Req).Next(outSize)
		if err != nil {
			return nil, tm, err
		}
		if out, err = out.ApplyPerm(perm); err != nil {
			return nil, tm, err
		}
		tm.Permute += time.Since(permStart)
	}
	reply := &Envelope{Req: env.Req, Backend: kind, Sh: out.Sh, Plain: out.Plain, Exp: out.Exp, Obfuscated: obfuscated}
	if kind == backend.PaillierHE {
		// The kernel's rows are unblinded; Pack is where they are
		// re-randomized, a slot-full per blinding factor.
		packStart := time.Now()
		packed, err := ev.Pack(out.CT.Data(), st.slotBits, st.threads)
		if err != nil {
			return nil, tm, err
		}
		tm.Pack = time.Since(packStart)
		reply.CT, reply.SlotBits, reply.Shape = packed, st.slotBits, out.CT.Shape()
	}
	return reply, tm, nil
}

// nonLinearStage is one data-provider stage.
type nonLinearStage struct {
	layers   []nn.Layer
	inShape  tensor.Shape
	outShape tensor.Shape
	threads  int
	// slotBits is the slot width this side's copy of the preceding linear
	// stage implies; a packed reply with narrower slots could overflow
	// them and is refused.
	slotBits int
}

// DataProvider holds the private key, encrypts inputs, and evaluates
// non-linear stages on plaintext. Under a backend plan it also decodes
// each round's payload per its backend (decrypt / reconstruct shares /
// pass plaintext through) and re-encodes for the next round's backend.
type DataProvider struct {
	sk     *paillier.PrivateKey
	factor int64
	// inputMax is the network's declared input domain (0 = undeclared).
	inputMax float64
	workers  int
	// blind is the one source of encryption blinding: the key holder's
	// inline CRT sampler, or the key holder's Pool when one is configured.
	blind  paillier.Blinder
	stages []*nonLinearStage

	planMu sync.RWMutex
	plan   []backend.Kind
}

// SetBackendPlan installs the session's per-round backend assignment on
// the data-provider side (validated against the same safety rules the
// model provider enforces). Safe to call concurrently with inference.
func (dp *DataProvider) SetBackendPlan(plan []backend.Kind) error {
	if plan != nil {
		if err := backend.ValidateAssignment("", plan, len(dp.stages)); err != nil {
			return fmt.Errorf("protocol: %w", err)
		}
		plan = append([]backend.Kind(nil), plan...)
	}
	dp.planMu.Lock()
	dp.plan = plan
	dp.planMu.Unlock()
	return nil
}

// BackendPlan returns a copy of the installed plan, nil when legacy.
func (dp *DataProvider) BackendPlan() []backend.Kind {
	dp.planMu.RLock()
	defer dp.planMu.RUnlock()
	return append([]backend.Kind(nil), dp.plan...)
}

// RoundBackend returns the backend round r runs on under the plan.
func (dp *DataProvider) RoundBackend(r int) backend.Kind {
	dp.planMu.RLock()
	defer dp.planMu.RUnlock()
	if r >= 0 && r < len(dp.plan) {
		return dp.plan[r]
	}
	return backend.PaillierHE
}

// SetStageThreads overrides stage r's thread count.
func (dp *DataProvider) SetStageThreads(r, threads int) error {
	if r < 0 || r >= len(dp.stages) {
		return fmt.Errorf("protocol: no non-linear stage %d", r)
	}
	if threads < 1 {
		return fmt.Errorf("protocol: stage %d needs ≥ 1 thread", r)
	}
	dp.stages[r].threads = threads
	return nil
}

// Stages returns the number of non-linear stages.
func (dp *DataProvider) Stages() int { return len(dp.stages) }

// CheckInput is the honest-client contract as a check: every element of x
// must be a number inside the network's declared input domain — the
// values the reply slots were sized for — and its scaled value x·F must
// fit the int64 that is encrypted. The first offender is returned as an
// *InputRangeError.
func (dp *DataProvider) CheckInput(x *tensor.Dense) error {
	F := float64(dp.factor)
	for i, v := range x.Data() {
		a := math.Abs(v)
		// Written so that NaN fails both.
		if dp.inputMax > 0 && !(a <= dp.inputMax) {
			return &InputRangeError{Index: i, Value: v, Max: dp.inputMax, Declared: true}
		}
		if !(a*F < 0x1p63) {
			return &InputRangeError{Index: i, Value: v, Max: 0x1p63 / F}
		}
	}
	return nil
}

// EncryptMetered performs step 1.1: scale the raw input to exponent 1 and
// encrypt it element-wise, accounting crypto ops into m (nil skips
// accounting): encryption counts, blinding-pool hits/misses, and the two
// half-size exponentiations of every blinding factor the key holder
// computes inline. An input CheckInput refuses is refused before any
// encryption.
func (dp *DataProvider) EncryptMetered(req uint64, x *tensor.Dense, m *obs.CostMeter) (*Envelope, error) {
	if err := dp.CheckInput(x); err != nil {
		return nil, err
	}
	scaled := qnn.ScaleInput(x, dp.factor)
	ct, err := dp.encryptTensor(scaled, m)
	if err != nil {
		return nil, err
	}
	// Round 0 is always paillier-he regardless of plan: the raw input
	// leaves the data provider only under encryption.
	return &Envelope{Req: req, Backend: backend.PaillierHE, CT: ct, Exp: 1}, nil
}

func (dp *DataProvider) encryptTensor(t *tensor.Tensor[int64], m *obs.CostMeter) (*paillier.CipherTensor, error) {
	return paillier.EncryptTensor(&dp.sk.PublicKey, dp.blind, t, dp.workers, m)
}

// ProcessNonLinearMetered executes round r's steps at the data provider:
// decrypt, apply the non-linear functions, and re-encrypt (intermediate
// rounds) or produce the final result (last round) — steps 2.1–2.4 and
// 3.5–3.7 of Figure 3 — accounting crypto ops into m (nil skips
// accounting): decryption counts — one per packed reply ciphertext, each
// two half-size exponentiations — plus the re-encryption costs; for ss-gc
// rounds the garbled-circuit ReLU gates, extension OTs, and opened share
// words land in m instead.
func (dp *DataProvider) ProcessNonLinearMetered(r int, env *Envelope, m *obs.CostMeter) (*Envelope, error) {
	if r < 0 || r >= len(dp.stages) {
		return nil, fmt.Errorf("protocol: no non-linear stage %d", r)
	}
	st := dp.stages[r]
	kind := env.BackendKind()
	if expect := dp.RoundBackend(r); kind != expect {
		return nil, fmt.Errorf("protocol: round %d reply arrived as %q, session plan assigns %q", r, kind, expect)
	}
	last := r == len(dp.stages)-1

	// Decode the round's payload into plaintext integers at scale
	// F^Exp, per the backend that produced it.
	var bigT *tensor.Tensor[*big.Int]
	// reluDone marks that the stage's leading ReLU already ran inside the
	// garbled circuit on shares, so the plaintext loop must skip it.
	reluDone := false
	switch kind {
	case backend.PaillierHE:
		if env.CT == nil {
			return nil, fmt.Errorf("protocol: non-linear stage %d received no ciphertext", r)
		}
		if env.SlotBits < st.slotBits {
			return nil, fmt.Errorf("protocol: round %d reply has %d-bit slots, this stage's bound needs %d", r, env.SlotBits, st.slotBits)
		}
		if env.Shape.Size() != st.inShape.Size() {
			return nil, fmt.Errorf("protocol: round %d reply packs %v, stage expects %v", r, env.Shape, st.inShape)
		}
		var err error
		bigT, err = dp.sk.Unpack(env.CT, env.SlotBits, st.inShape.Size(), st.threads)
		if err != nil {
			return nil, err
		}
		if m != nil {
			n := uint64(env.CT.Size())
			m.Add(obs.CostStats{Decrypts: n, ModExps: 2 * n})
		}
	case backend.SSGC:
		if env.Sh == nil {
			return nil, fmt.Errorf("protocol: non-linear stage %d received no shares", r)
		}
		shares := env.Sh.Data()
		if !last && len(st.layers) > 0 {
			if _, isRelu := st.layers[0].(*nn.ReLU); isRelu {
				// The two-party path: ReLU runs on the shares through the
				// garbled circuit (exact on ring integers — a sign test at
				// scale F^Exp commutes with descaling), and only the fresh
				// output shares are opened below.
				fresh, err := backend.GCReLUShares(shares, m)
				if err != nil {
					return nil, err
				}
				shares = fresh
				reluDone = true
			}
		}
		bigT = tensor.New[*big.Int](env.Sh.Shape()...)
		for i, s := range shares {
			bigT.SetFlat(i, big.NewInt(secshare.SignedOfRing(s.Reconstruct())))
		}
		if m != nil {
			m.Add(obs.CostStats{OpenedWords: 2 * uint64(len(shares))})
		}
	case backend.Clear:
		if env.Plain == nil {
			return nil, fmt.Errorf("protocol: non-linear stage %d received no plaintext values", r)
		}
		bigT = env.Plain
	default:
		return nil, fmt.Errorf("protocol: non-linear stage %d received unknown backend %q", r, kind)
	}
	vals, err := qnn.Descale(bigT, dp.factor, env.Exp)
	if err != nil {
		return nil, err
	}

	if last {
		if env.Obfuscated {
			return nil, fmt.Errorf("protocol: final stage must receive a non-obfuscated tensor")
		}
		shaped, err := vals.Reshape(st.inShape...)
		if err != nil {
			return nil, err
		}
		cur := shaped
		for _, l := range st.layers {
			cur, err = l.Forward(cur)
			if err != nil {
				return nil, err
			}
		}
		return &Envelope{Req: env.Req, Result: cur}, nil
	}

	// Intermediate stage: the tensor is permuted, so only element-wise
	// functions may run; they apply position-independently on the flat
	// vector.
	if !env.Obfuscated {
		return nil, fmt.Errorf("protocol: intermediate non-linear stage %d expects an obfuscated tensor", r)
	}
	flat := vals.Flatten()
	data := flat.Data()
	for li, l := range st.layers {
		if li == 0 && reluDone {
			continue
		}
		ew, ok := l.(nn.ElementWise)
		if !ok {
			return nil, fmt.Errorf("protocol: layer %s is not element-wise but received a permuted tensor", l.Name())
		}
		for i, v := range data {
			data[i] = ew.ApplyElement(v)
		}
	}
	rescaled := qnn.ScaleInput(flat, dp.factor)
	return dp.encodeFor(env.Req, r+1, rescaled, m)
}

// encodeFor packs the next round's scaled input in the representation
// its planned backend expects: Paillier ciphertexts, fresh additive
// shares, or plaintext integers (past the certified boundary).
func (dp *DataProvider) encodeFor(req uint64, nextRound int, scaled *tensor.Tensor[int64], m *obs.CostMeter) (*Envelope, error) {
	next := dp.RoundBackend(nextRound)
	env := &Envelope{Req: req, Backend: next, Exp: 1, Obfuscated: true}
	switch next {
	case backend.PaillierHE:
		ct, err := dp.encryptTensor(scaled, m)
		if err != nil {
			return nil, err
		}
		env.CT = ct
	case backend.SSGC:
		sh := tensor.New[secshare.Shares](scaled.Shape()...)
		for i, v := range scaled.Data() {
			s, err := secshare.SplitRandom(rand.Reader, secshare.RingOfBig(big.NewInt(v)))
			if err != nil {
				return nil, err
			}
			sh.SetFlat(i, s)
		}
		env.Sh = sh
	case backend.Clear:
		plain := tensor.New[*big.Int](scaled.Shape()...)
		for i, v := range scaled.Data() {
			plain.SetFlat(i, big.NewInt(v))
		}
		env.Plain = plain
		if m != nil {
			m.Add(obs.CostStats{PlainOps: uint64(scaled.Size())})
		}
	default:
		return nil, fmt.Errorf("protocol: round %d plans unknown backend %q", nextRound, next)
	}
	return env, nil
}

// StageComm returns the per-request stage-to-thread communication volume
// of linear stage r, in ciphertext elements, for both partitioning modes
// (Section IV-D):
//
//   - without partitioning, the stage "feeds an input tensor directly to
//     each thread, which produces one element of the output tensor at a
//     time" (Exp#2/Exp#4 baseline): outSize × inSize elements per op;
//   - with partitioning, each thread receives once the union of inputs
//     its output share needs (the whole input for fully-connected ops,
//     receptive-field sub-tensors for convolutions).
func (mp *ModelProvider) StageComm(r, threads int) (withPart, withoutPart int, err error) {
	if r < 0 || r >= len(mp.stages) {
		return 0, 0, fmt.Errorf("protocol: no linear stage %d", r)
	}
	st := mp.stages[r]
	shape := st.inShape
	for _, op := range st.ops {
		eop, ok := op.(qnn.ElementOp)
		if !ok {
			return 0, 0, fmt.Errorf("protocol: op %s lacks element accounting", op.Name())
		}
		if _, structural := op.(*qnn.QFlatten); structural {
			// Shape-only ops move no data between threads: no dispatch
			// happens for them in either partitioning mode.
			next, err := op.OutShape(shape)
			if err != nil {
				return 0, 0, err
			}
			shape = next
			continue
		}
		outN, err := eop.OutSize(shape)
		if err != nil {
			return 0, 0, err
		}
		withoutPart += outN * shape.Size()
		tasks, err := partition.PlanOp(eop, shape, threads, true)
		if err != nil {
			return 0, 0, err
		}
		for _, task := range tasks {
			if task.Inputs == nil {
				withPart += shape.Size()
			} else {
				withPart += len(task.Inputs)
			}
		}
		next, err := op.OutShape(shape)
		if err != nil {
			return 0, 0, err
		}
		shape = next
	}
	return withPart, withoutPart, nil
}
