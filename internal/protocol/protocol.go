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
	"bytes"
	"crypto/rand"
	"fmt"
	"math"
	"math/big"
	"sync"
	"time"

	"ppstream/internal/backend"
	"ppstream/internal/garble"
	"ppstream/internal/nn"
	"ppstream/internal/obfuscate"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/qnn"
	"ppstream/internal/secshare"
	"ppstream/internal/tensor"
)

// Envelope is the in-process message flowing between protocol stages:
// one round's activation tensor in its backend's representation, or the
// final plaintext result.
type Envelope struct {
	// Req identifies the inference request.
	Req uint64
	// Payload is the round's tensor; every envelope but a terminal one
	// sets its Kind. A paillier-he CT is obfuscated between the model and
	// data provider except in the last round. On the way to the model
	// provider it holds one value per ciphertext; on the way back it is a
	// packed reply (SlotBits != 0).
	backend.Payload
	// SlotBits and Shape describe a packed reply: CT is then the vector of
	// ⌈Shape.Size()/S⌉ ciphertexts paillier.Evaluator.Pack built, each
	// carrying up to S = PublicKey.Slots(SlotBits) values of the logical
	// tensor Shape in SlotBits-wide slots.
	SlotBits int
	Shape    tensor.Shape
	// Obfuscated records whether the element positions are permuted.
	Obfuscated bool
	// Result is the final inference output (last stage only).
	Result *tensor.Dense
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
}

// Protocol binds a model provider and a data provider for one scaled
// network. Stages alternate linear (model provider) and non-linear (data
// provider), matching the merged primitive layers.
type Protocol struct {
	Model *ModelProvider
	Data  *DataProvider
	// Merged is the alternating stage list the roles were built from.
	Merged []*nn.PrimitiveLayer
	// life admits and finishes Infer's requests; Build gives it no
	// admission control and no sinks.
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
	return newModelProvider(merged, stages, pk, cfg)
}

func newModelProvider(merged []*nn.PrimitiveLayer, stages []qnn.Stage, pk *paillier.PublicKey, cfg Config) (*ModelProvider, error) {
	mp := &ModelProvider{
		roundPlan: privacyMax(len(stages)),
		pk:        pk,
		eval:      paillier.NewEvaluator(pk, nil),
		state:     map[uint64]*obfuscate.Rounds{},
	}
	for r, st := range stages {
		m := merged[2*r]
		ls := &linearStage{
			Stage: backend.Stage{
				Ops:      st.Ops,
				InShape:  m.InShape.Clone(),
				OutShape: m.OutShape.Clone(),
				Threads:  cfg.Workers,
			},
			name:        m.Name(),
			slotBits:    st.SlotBits(),
			reluFollows: garblesReLU(merged, r),
		}
		if err := ls.count(pk); err != nil {
			return nil, err
		}
		mp.stages = append(mp.stages, ls)
	}
	return mp, nil
}

// garblesReLU reports whether round r's non-linear stage is intermediate
// and starts with ReLU: there the ss-gc backend runs the ReLU as a garbled
// circuit on the shares. The final non-linear stage runs in the clear on
// the reconstructed result, so it never garbles.
func garblesReLU(merged []*nn.PrimitiveLayer, r int) bool {
	next := merged[2*r+1]
	if 2*r+2 == len(merged) || len(next.Layers) == 0 {
		return false
	}
	_, relu := next.Layers[0].(*nn.ReLU)
	return relu
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
		roundPlan: privacyMax(len(stages)),
		sk:        sk,
		factor:    cfg.Factor,
		inputMax:  inputMax,
		workers:   cfg.Workers,
	}
	for r, st := range stages {
		m := merged[2*r+1]
		dp.stages = append(dp.stages, &nonLinearStage{
			layers:     m.Layers,
			slotBits:   st.SlotBits(),
			inShape:    m.InShape.Clone(),
			threads:    cfg.Workers,
			garbleReLU: garblesReLU(merged, r),
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
	mp, err := newModelProvider(merged, stages, &key.PublicKey, cfg)
	if err != nil {
		return nil, err
	}
	dp := newDataProvider(net.InputMax, merged, stages, key, cfg)
	return &Protocol{Model: mp, Data: dp, Merged: merged, life: NewLifecycle(mp, SessionConfig{})}, nil
}

// Rounds returns the number of linear/non-linear round pairs.
func (p *Protocol) Rounds() int { return len(p.Model.stages) }

// ApplyProfile solves the backend assignment for the given deployment
// profile and certified clear boundary (rounds, i.e. no clear execution,
// when boundary <= 0) and installs it on both roles, returning the plan.
func (p *Protocol) ApplyProfile(profile backend.Profile, boundary int) (*backend.Plan, error) {
	plan, err := p.Model.applyProfile(profile, boundary)
	if err != nil {
		return nil, err
	}
	if err := p.Data.SetBackendPlan(plan.Assignment); err != nil {
		return nil, err
	}
	return plan, nil
}

// StageCosts returns the crypto-op counts one request meters when it runs
// every round on paillier-he, single-threaded and with no blinding pool:
// the input encryption, and each merged stage in Merged order. It needs
// only shapes, weights and the key — no ciphertext:
//
//   - linear round r: the kernel's count (qnn.StageCost), Pack's
//     multiplications, and one inline re-randomization per reply;
//   - non-linear round r: one decryption per reply (two half-size
//     exponentiations each), then the next round's input encryptions;
//   - encryption: one per input element, each two multiplications and
//     the key holder's two half-size exponentiations.
func (p *Protocol) StageCosts() (encrypt obs.CostStats, merged []obs.CostStats) {
	stages := p.Model.stages
	for r, st := range stages {
		nonLinear := decryptions(st.replies)
		if r+1 < len(stages) {
			nonLinear.Add(encryptions(stages[r+1].InShape.Size()))
		}
		merged = append(merged, st.kernel, nonLinear)
	}
	return encryptions(stages[0].InShape.Size()), merged
}

// encryptions is what the data provider meters encrypting n values.
func encryptions(n int) obs.CostStats {
	e := uint64(n)
	return obs.CostStats{Encrypts: e, MulMods: 2 * e, ModExps: 2 * e}
}

// decryptions is what the data provider meters opening a reply of n
// ciphertexts.
func decryptions(n int) obs.CostStats {
	d := uint64(n)
	return obs.CostStats{Decrypts: d, ModExps: 2 * d}
}

// Infer runs the full collaborative workflow sequentially for one input:
// the reference execution used by tests and the CipherBase baseline. The
// streaming engine (internal/core) runs the same per-stage methods inside
// pipeline stages.
func (p *Protocol) Infer(req uint64, x *tensor.Dense) (out *tensor.Dense, err error) {
	r, err := p.life.Admit(req, "", time.Now())
	if err != nil {
		return nil, err
	}
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

// roundPlan is a role's per-round backend assignment. Both roles embed
// one; it always holds a plan — Build* installs privacy-max's all-Paillier
// one — and every replacement passes backend.ValidateAssignment, so the
// model provider refuses exactly the plans the data provider refuses.
type roundPlan struct {
	planMu sync.RWMutex
	kinds  []backend.Kind
}

// privacyMax is the all-Paillier plan of a network with the given rounds.
func privacyMax(rounds int) roundPlan {
	kinds := make([]backend.Kind, rounds)
	for r := range kinds {
		kinds[r] = backend.PaillierHE
	}
	return roundPlan{kinds: kinds}
}

// SetBackendPlan installs the session's per-round backend assignment once
// it passes the safety rules: one kind per round, each known, round 0 on
// paillier-he (the raw input never leaves the data provider unencrypted)
// and clear only as a suffix. Safe to call concurrently with round
// processing.
func (p *roundPlan) SetBackendPlan(plan []backend.Kind) error {
	if err := backend.ValidateAssignment("", plan, len(p.kinds)); err != nil {
		return fmt.Errorf("protocol: %w", err)
	}
	p.planMu.Lock()
	p.kinds = append([]backend.Kind(nil), plan...)
	p.planMu.Unlock()
	return nil
}

// RoundBackend returns the backend round r runs on; r must be a round of
// the network.
func (p *roundPlan) RoundBackend(r int) backend.Kind {
	p.planMu.RLock()
	defer p.planMu.RUnlock()
	return p.kinds[r]
}

// labels returns the plan as strings, the form request records carry.
func (p *roundPlan) labels() []string {
	p.planMu.RLock()
	defer p.planMu.RUnlock()
	out := make([]string, len(p.kinds))
	for r, k := range p.kinds {
		out[r] = string(k)
	}
	return out
}

// linearStage is one model-provider stage: the backend's view of it plus
// what the planner and the reply packing need.
type linearStage struct {
	backend.Stage
	name string
	// reluFollows marks that the intermediate nonlinear stage after this
	// round starts with ReLU (the ss-gc backend garbles there).
	reluFollows bool
	// slotBits is the reply slot width W (stageSlotBits), fixed at Build.
	slotBits int
	// replies is the reply's ciphertext count at slotBits, muls the
	// stage's non-zero weight multiplications (qnn.MulCount), and kernel
	// what a paillier-he pass meters here with no blinding pool: the
	// kernel's count, Pack's multiplications and one inline blinding per
	// reply. count sets all three at Build.
	replies int
	muls    uint64
	kernel  obs.CostStats
}

// count derives the stage's operation counts under pk from its weights
// and shapes.
func (st *linearStage) count(pk *paillier.PublicKey) error {
	kernel, err := qnn.StageCost(st.Ops, st.InShape)
	if err != nil {
		return err
	}
	outs := st.OutShape.Size()
	st.replies = pk.PackedLen(outs, st.slotBits)
	replies := uint64(st.replies)
	kernel.Add(obs.CostStats{
		MulMods: pk.PackMulMods(outs, st.slotBits),
		Rerands: replies, ModExps: replies, PoolMisses: replies,
	})
	st.kernel = kernel
	shape := st.InShape
	for _, op := range st.Ops {
		st.muls += uint64(qnn.MulCount(op, shape))
		if next, err := op.OutShape(shape); err == nil {
			shape = next
		}
	}
	return nil
}

// ModelProvider executes linear stages under the session's per-round
// backend plan and manages per-request obfuscation state. It never sees
// the private key.
type ModelProvider struct {
	roundPlan
	pk     *paillier.PublicKey
	eval   *paillier.Evaluator
	stages []*linearStage

	mu    sync.Mutex
	state map[uint64]*obfuscate.Rounds
}

// Stages returns the number of linear stages.
func (mp *ModelProvider) Stages() int { return len(mp.stages) }

// LayerInfos returns the planner's view of every linear round: its
// output and reply counts, and the operations it meters on each backend
// (backend.LayerInfo) — the inputs backend.PlanFor consumes. A round's
// counts run from its input leaving the data provider to the data
// provider's opening of its output, so a request under plan P meters its
// input encryption plus round r's count on P[r], summed over the rounds.
func (mp *ModelProvider) LayerInfos() []backend.LayerInfo {
	out := make([]backend.LayerInfo, len(mp.stages))
	for r, st := range mp.stages {
		outs := st.OutShape.Size()
		info := backend.LayerInfo{
			Name:    st.name,
			Outs:    outs,
			Replies: st.replies,
			HE:      st.kernel,
			SSGC:    obs.CostStats{Triples: st.muls, OpenedWords: 4*st.muls + 2*uint64(outs), PlainOps: uint64(outs)},
			Clear:   obs.CostStats{PlainOps: st.muls},
		}
		info.HE.Add(decryptions(st.replies))
		if r > 0 {
			// The data provider encodes the round's input for its backend.
			in := st.InShape.Size()
			info.HE.Add(encryptions(in))
			info.SSGC.PlainOps += uint64(in)
			info.Clear.PlainOps += uint64(in)
		}
		if st.reluFollows {
			info.SSGC.Add(backend.ReLUCost(outs))
		}
		out[r] = info
	}
	return out
}

// applyProfile solves the backend plan for profile and the certified
// clear boundary — <= 0 certifies no round, so none runs in the clear —
// and installs it.
func (mp *ModelProvider) applyProfile(profile backend.Profile, boundary int) (*backend.Plan, error) {
	if boundary <= 0 {
		boundary = mp.Stages()
	}
	plan, err := backend.PlanFor(profile, mp.LayerInfos(), boundary, mp.pk.N.BitLen())
	if err != nil {
		return nil, fmt.Errorf("protocol: solving backend plan: %w", err)
	}
	if err := mp.SetBackendPlan(plan.Assignment); err != nil {
		return nil, err
	}
	return plan, nil
}

// SetBlindPool replaces the evaluator's reply blinding pool (nil: every
// factor inline) — sessions call this once the backend plan is known, so
// the pool can be sized to the plan's actual Paillier rounds.
func (mp *ModelProvider) SetBlindPool(pool *paillier.Pool) {
	mp.eval = paillier.NewEvaluator(mp.pk, pool)
}

// SetStageThreads overrides stage r's thread count (from the
// load-balanced allocation plan).
func (mp *ModelProvider) SetStageThreads(r, threads int) error {
	if r < 0 || r >= len(mp.stages) {
		return fmt.Errorf("protocol: no linear stage %d", r)
	}
	if threads < 1 {
		return fmt.Errorf("protocol: stage %d needs ≥ 1 thread", r)
	}
	mp.stages[r].Threads = threads
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
	if r < 0 || r >= len(mp.stages) {
		return nil, tm, fmt.Errorf("protocol: no linear stage %d", r)
	}
	st := mp.stages[r]
	in, err := mp.roundInput(r, env, &tm)
	if err != nil {
		return nil, tm, err
	}
	ev := mp.eval
	if m != nil {
		ev = ev.WithCost(m)
	}
	kernelStart := time.Now()
	out, err := backend.Execute(ev, m, &st.Stage, in)
	if err != nil {
		return nil, tm, err
	}
	tm.Kernel = time.Since(kernelStart)

	// Step 3.4: the last round goes out without obfuscation so SoftMax
	// can run.
	obfuscated := r < len(mp.stages)-1
	if obfuscated {
		permStart := time.Now()
		perm, err := mp.rounds(env.Req).Next(st.OutShape.Size())
		if err != nil {
			return nil, tm, err
		}
		if out, err = out.ApplyPerm(perm); err != nil {
			return nil, tm, err
		}
		tm.Permute += time.Since(permStart)
	}
	reply := &Envelope{Req: env.Req, Payload: *out, Obfuscated: obfuscated}
	if out.Kind == backend.PaillierHE {
		// The kernel's rows are unblinded; Pack is where they are
		// re-randomized, a slot-full per blinding factor.
		packStart := time.Now()
		packed, err := ev.Pack(out.CT.Data(), st.slotBits, st.Threads)
		if err != nil {
			return nil, tm, err
		}
		tm.Pack = time.Since(packStart)
		reply.CT, reply.SlotBits, reply.Shape = packed, st.slotBits, out.CT.Shape()
	}
	return reply, tm, nil
}

// roundInput checks that env is what round r's linear stage takes — the
// planned backend, one value per ciphertext, the stage's input size,
// permuted in every round but the first — and returns its payload in the
// stage's input shape, undoing the previous round's permutation.
func (mp *ModelProvider) roundInput(r int, env *Envelope, tm *LinearTiming) (*backend.Payload, error) {
	st := mp.stages[r]
	if kind := mp.RoundBackend(r); env.Kind != kind {
		return nil, fmt.Errorf("protocol: round %d arrived as %q, session plan assigns %q", r, env.Kind, kind)
	}
	if env.SlotBits != 0 {
		return nil, fmt.Errorf("protocol: linear stage %d: a packed reply cannot be a round input", r)
	}
	size, err := env.Payload.Size()
	if err != nil {
		return nil, fmt.Errorf("protocol: linear stage %d: %w", r, err)
	}
	if size != st.InShape.Size() {
		return nil, fmt.Errorf("protocol: linear stage %d input size %d, want %v", r, size, st.InShape)
	}
	if env.Kind == backend.PaillierHE && env.Exp != 1 {
		// The reply's slot width is derived for inputs at scale F¹.
		return nil, fmt.Errorf("protocol: linear stage %d input at scale exponent %d, want 1", r, env.Exp)
	}
	if env.Obfuscated != (r > 0) {
		return nil, fmt.Errorf("protocol: round %d input obfuscated=%v: every round's input but the first is permuted", r, env.Obfuscated)
	}
	if r == 0 {
		return env.Payload.Reshape(st.InShape)
	}
	start := time.Now()
	perm, err := mp.rounds(env.Req).Pop()
	if err != nil {
		return nil, err
	}
	in, err := env.Payload.InvertPerm(perm, st.InShape)
	tm.Permute += time.Since(start)
	return in, err
}

// nonLinearStage is one data-provider stage.
type nonLinearStage struct {
	layers  []nn.Layer
	inShape tensor.Shape
	threads int
	// slotBits is the slot width this side's copy of the preceding linear
	// stage implies; a packed reply with narrower slots could overflow
	// them and is refused.
	slotBits int
	// garbleReLU marks an ss-gc round whose leading ReLU runs inside the
	// garbled circuit on the shares (garblesReLU).
	garbleReLU bool
}

// DataProvider holds the private key, encrypts inputs, and evaluates
// non-linear stages on plaintext. Under a backend plan it also decodes
// each round's payload per its backend (decrypt / reconstruct shares /
// pass plaintext through) and re-encodes for the next round's backend.
type DataProvider struct {
	roundPlan
	sk     *paillier.PrivateKey
	factor int64
	// inputMax is the network's declared input domain (0 = undeclared).
	inputMax float64
	workers  int
	stages   []*nonLinearStage

	// ot is the OT extension every garbled ReLU of this data provider
	// draws its batches from: its base OTs run once, at the first ss-gc
	// round that garbles (gcOT).
	otMu sync.Mutex
	ot   *garble.OTSetup
}

// gcOT returns the data provider's OT setup, running its base OTs first if
// no garbled ReLU has needed it yet.
func (dp *DataProvider) gcOT() (*garble.OTSetup, error) {
	dp.otMu.Lock()
	defer dp.otMu.Unlock()
	if dp.ot == nil {
		ot, err := garble.NewOTSetup()
		if err != nil {
			return nil, fmt.Errorf("protocol: ot setup: %w", err)
		}
		dp.ot = ot
	}
	return dp.ot, nil
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

// EncryptMetered performs step 1.1: scale the raw input to exponent 1 and
// encrypt it element-wise, accounting crypto ops into m (nil skips
// accounting): encryption counts and the two half-size exponentiations of
// every blinding factor the key holder computes inline.
//
// The honest-client contract is checked first, before any encryption:
// every element of x must be a number inside the network's declared input
// domain — the values the reply slots were sized for — and its scaled
// value x·F must fit the int64 that is encrypted. The first offender is
// refused as an *InputRangeError.
func (dp *DataProvider) EncryptMetered(req uint64, x *tensor.Dense, m *obs.CostMeter) (*Envelope, error) {
	F := float64(dp.factor)
	for i, v := range x.Data() {
		a := math.Abs(v)
		// Written so that NaN fails both.
		if dp.inputMax > 0 && !(a <= dp.inputMax) {
			return nil, &InputRangeError{Index: i, Value: v, Max: dp.inputMax, Declared: true}
		}
		if !(a*F < 0x1p63) {
			return nil, &InputRangeError{Index: i, Value: v, Max: 0x1p63 / F}
		}
	}
	ct, err := dp.sk.EncryptTensor(nil, qnn.ScaleInput(x, dp.factor), dp.workers, m)
	if err != nil {
		return nil, err
	}
	// Round 0 is always paillier-he regardless of plan: the raw input
	// leaves the data provider only under encryption.
	return &Envelope{Req: req, Payload: backend.Payload{Kind: backend.PaillierHE, CT: ct, Exp: 1}}, nil
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
	if kind := dp.RoundBackend(r); env.Kind != kind {
		return nil, fmt.Errorf("protocol: round %d reply arrived as %q, session plan assigns %q", r, env.Kind, kind)
	}
	// Only the last round arrives unpermuted: its SoftMax is
	// position-dependent.
	last := r == len(dp.stages)-1
	if env.Obfuscated == last {
		return nil, fmt.Errorf("protocol: non-linear stage %d of %d received obfuscated=%v", r, len(dp.stages), env.Obfuscated)
	}
	vals, err := dp.open(r, env, m)
	if err != nil {
		return nil, err
	}
	if last {
		cur, err := vals.Reshape(st.inShape...)
		if err != nil {
			return nil, err
		}
		for _, l := range st.layers {
			if cur, err = l.Forward(cur); err != nil {
				return nil, err
			}
		}
		return &Envelope{Req: env.Req, Result: cur}, nil
	}

	// Intermediate stage: the tensor is permuted, so only element-wise
	// functions may run; they apply position-independently on the flat
	// vector. A ReLU the garbled circuit already applied is skipped.
	flat := vals.Flatten()
	data := flat.Data()
	for li, l := range st.layers {
		if li == 0 && st.garbleReLU && env.Kind == backend.SSGC {
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
	return dp.encodeFor(env.Req, r+1, qnn.ScaleInput(flat, dp.factor), m)
}

// open decodes round r's reply into its real values, per the backend that
// produced it: unpack and decrypt paillier-he ciphertexts, reconstruct
// ss-gc shares — running a leading ReLU on them through the garbled
// circuit first (exact on ring integers: a sign test at scale F^Exp
// commutes with descaling), so only the fresh output shares are opened —
// or take clear integers as they are.
func (dp *DataProvider) open(r int, env *Envelope, m *obs.CostMeter) (*tensor.Dense, error) {
	st := dp.stages[r]
	if _, err := env.Payload.Shape(); err != nil {
		return nil, fmt.Errorf("protocol: non-linear stage %d: %w", r, err)
	}
	ints := env.Plain
	switch env.Kind {
	case backend.PaillierHE:
		if env.SlotBits < st.slotBits {
			return nil, fmt.Errorf("protocol: round %d reply has %d-bit slots, this stage's bound needs %d", r, env.SlotBits, st.slotBits)
		}
		if env.Shape.Size() != st.inShape.Size() {
			return nil, fmt.Errorf("protocol: round %d reply packs %v, stage expects %v", r, env.Shape, st.inShape)
		}
		var err error
		if ints, err = dp.sk.Unpack(env.CT, env.SlotBits, st.inShape.Size(), st.threads); err != nil {
			return nil, err
		}
		n := uint64(env.CT.Size())
		m.Add(obs.CostStats{Decrypts: n, ModExps: 2 * n})
	case backend.SSGC:
		shares := env.Sh.Data()
		if st.garbleReLU {
			ot, err := dp.gcOT()
			if err != nil {
				return nil, err
			}
			if shares, err = backend.GCReLUShares(ot, shares, m); err != nil {
				return nil, err
			}
		}
		ints = tensor.New[*big.Int](env.Sh.Shape()...)
		for i, s := range shares {
			ints.SetFlat(i, big.NewInt(secshare.SignedOfRing(s.Reconstruct())))
		}
		n := uint64(len(shares))
		m.Add(obs.CostStats{OpenedWords: 2 * n, PlainOps: n})
	}
	return qnn.Descale(ints, dp.factor, env.Exp)
}

// encodeFor packs the next round's scaled input in the representation
// its planned backend expects: Paillier ciphertexts, fresh additive
// shares, or plaintext integers (past the certified boundary).
func (dp *DataProvider) encodeFor(req uint64, nextRound int, scaled *tensor.Tensor[int64], m *obs.CostMeter) (*Envelope, error) {
	next := dp.RoundBackend(nextRound)
	env := &Envelope{Req: req, Payload: backend.Payload{Kind: next, Exp: 1}, Obfuscated: true}
	switch next {
	case backend.PaillierHE:
		ct, err := dp.sk.EncryptTensor(nil, scaled, dp.workers, m)
		if err != nil {
			return nil, err
		}
		env.CT = ct
	case backend.SSGC:
		// One read from crypto/rand masks every value.
		masks := make([]byte, 8*scaled.Size())
		if _, err := rand.Read(masks); err != nil {
			return nil, fmt.Errorf("protocol: share randomness: %w", err)
		}
		src := bytes.NewReader(masks)
		sh := tensor.New[secshare.Shares](scaled.Shape()...)
		for i, v := range scaled.Data() {
			s, err := secshare.SplitRandom(src, secshare.RingOfBig(big.NewInt(v)))
			if err != nil {
				return nil, err
			}
			sh.SetFlat(i, s)
		}
		env.Sh = sh
		m.Add(obs.CostStats{PlainOps: uint64(scaled.Size())})
	case backend.Clear:
		plain := tensor.New[*big.Int](scaled.Shape()...)
		for i, v := range scaled.Data() {
			plain.SetFlat(i, big.NewInt(v))
		}
		env.Plain = plain
		m.Add(obs.CostStats{PlainOps: uint64(scaled.Size())})
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
//
// Both are accounted, not executed: in one process every thread reads the
// stage's input in place. The shares are qnn.SplitOutputs', the split
// qnn.ApplyStage runs.
func (mp *ModelProvider) StageComm(r, threads int) (withPart, withoutPart int, err error) {
	if r < 0 || r >= len(mp.stages) {
		return 0, 0, fmt.Errorf("protocol: no linear stage %d", r)
	}
	st := mp.stages[r]
	shape := st.InShape
	for _, op := range st.Ops {
		next, err := op.OutShape(shape)
		if err != nil {
			return 0, 0, err
		}
		// Shape-only ops move no data between threads: no dispatch
		// happens for them in either partitioning mode.
		if _, structural := op.(*qnn.QFlatten); !structural {
			withoutPart += next.Size() * shape.Size()
			for _, task := range planOp(op, shape, next.Size(), threads) {
				if task.Inputs == nil {
					withPart += shape.Size()
				} else {
					withPart += len(task.Inputs)
				}
			}
		}
		shape = next
	}
	return withPart, withoutPart, nil
}

// task describes one thread's share of an op: its output range plus the
// input offsets it must receive (nil = the whole input tensor).
type task struct {
	qnn.Range
	// Inputs is the set of flat input offsets this thread needs, in no
	// order; nil means the entire input is required.
	Inputs []int
}

// planOp computes the per-thread tasks of an op over an input of shape
// in with n outputs: each task's Inputs is the union of the op's
// per-element needs over its range, except for ops that read everything
// (fully-connected), which keep Inputs nil — they support only output
// partitioning, as the paper notes.
func planOp(op qnn.Op, in tensor.Shape, n, threads int) []task {
	ranges := qnn.SplitOutputs(n, threads)
	tasks := make([]task, len(ranges))
	for i, r := range ranges {
		tasks[i] = task{Range: r}
		seen := map[int]bool{}
		for idx := r.Lo; idx < r.Hi; idx++ {
			needs := op.InputNeeds(in, idx)
			if needs == nil {
				seen = nil // whole input
				break
			}
			for _, off := range needs {
				seen[off] = true
			}
		}
		if seen == nil {
			continue
		}
		tasks[i].Inputs = make([]int, 0, len(seen))
		for off := range seen {
			tasks[i].Inputs = append(tasks[i].Inputs, off)
		}
	}
	return tasks
}
