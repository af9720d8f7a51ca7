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
// final plaintext result. Its shape, scale exponent and whether it is
// permuted are not carried: each role derives them from its own schedule.
type Envelope struct {
	// Req identifies the inference request.
	Req uint64
	// Payload is the round's tensor; every envelope but a terminal one
	// sets its Kind. On the way to the model provider it holds one value
	// per ciphertext; on the way back a paillier-he payload is a packed
	// reply (SlotBits != 0).
	backend.Payload
	// SlotBits describes a packed reply: CT is then the vector of ⌈n/S⌉
	// ciphertexts paillier.Evaluator.Pack built from the round's n output
	// values, each carrying up to S = PublicKey.Slots(SlotBits) of them in
	// SlotBits-wide slots.
	SlotBits int
	// Result is the final inference output (last stage only).
	Result *tensor.Dense
}

// SlotError reports a key too small to carry one value of a linear
// stage's output bound: the stage's replies could not be decoded, so the
// model provider refuses to build for the key — at Build, or at a
// session's Hello, whose client then fails with ErrRefused.
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
	// StageNames names each merged stage the roles were built from
	// (nn.PrimitiveLayer.Name), in workflow order: round r's linear stage
	// at 2r, its non-linear stage at 2r+1.
	StageNames []string
}

// roundSpec is one round of the public schedule both roles follow
// (Figure 3). schedule derives it from the architecture alone — shapes and
// layer kinds, never a weight.
type roundSpec struct {
	// name is the round's linear stage; in is its input shape and out its
	// output's, which the reply carries to the round's non-linear stage.
	name    string
	in, out tensor.Shape
	// exp is the reply's scale exponent, 1 + qnn.ScaleSteps of the linear
	// stage's layers: the power of F the data provider descales it by.
	exp int32
	// garbleReLU marks an intermediate non-linear stage that starts with
	// ReLU: on ss-gc the garbled circuit runs it on the shares. The final
	// non-linear stage runs in the clear on the reconstructed result, so it
	// never garbles.
	garbleReLU bool
}

// roundSchedule is the public schedule both roles follow: a roundSpec per
// round, and the network's declared input domain (nn.Network.InputMax, 0
// when undeclared), which the data provider holds its inputs to, the model
// provider's reply slot widths start from, and the Hello compares.
type roundSchedule struct {
	sched    []roundSpec
	inputMax float64
}

// schedule is the shared front of every role builder and of Serve: it
// checks the factor and the workflow's structural requirements
// (alternation, linear start, non-linear finish, element-wise intermediate
// non-linear stages), and returns the merged stages and the round
// schedule. The workflow alternates from a linear start to a non-linear
// finish, so round r's linear stage is merged[2r] and its non-linear stage
// merged[2r+1].
func schedule(net *nn.Network, factor int64) (merged []*nn.PrimitiveLayer, s roundSchedule, err error) {
	if factor <= 0 {
		return nil, s, fmt.Errorf("protocol: scaling factor %d must be positive", factor)
	}
	if merged, err = nn.Merge(net); err != nil {
		return nil, s, err
	}
	if err := nn.CheckAlternating(merged); err != nil {
		return nil, s, err
	}
	if err := nn.ProtocolShape(merged); err != nil {
		return nil, s, err
	}
	// Middle non-linear stages run on permuted tensors: they must be
	// element-wise (Section III-C). The final stage may contain SoftMax.
	for i, m := range merged {
		if m.Kind == nn.NonLinear && i != len(merged)-1 && !m.ElementWiseOnly() {
			return nil, s, fmt.Errorf("protocol: intermediate non-linear stage %s contains position-dependent operations; replace MaxPool (nn.ReplaceMaxPool) or move SoftMax to the last layer", m.Name())
		}
	}
	s = roundSchedule{sched: make([]roundSpec, len(merged)/2), inputMax: net.InputMax}
	for r := range s.sched {
		linear, next := merged[2*r], merged[2*r+1]
		relu := false
		if 2*r+2 < len(merged) {
			_, relu = next.Layers[0].(*nn.ReLU)
		}
		s.sched[r] = roundSpec{name: linear.Name(), in: linear.InShape, out: linear.OutShape,
			exp: int32(1 + qnn.ScaleSteps(linear.Layers)), garbleReLU: relu}
	}
	return merged, s, nil
}

// walk is the model provider's front: the schedule, then the one stage
// walk (qnn.Walk) that quantizes every linear stage at factor — refusing a
// weight whose w·F does not fit an int32 with *qnn.WeightRangeError — and
// chains the schedule's input domain into each stage's reply slot width.
// Per round it adds what a model provider needs under any key: the
// quantized ops, the slot width and the key-independent operation counts.
// No round refers to the float network.
func walk(net *nn.Network, factor int64) (merged []*nn.PrimitiveLayer, s roundSchedule, stages []linearStage, err error) {
	if merged, s, err = schedule(net, factor); err != nil {
		return nil, s, nil, err
	}
	walked, err := qnn.Walk(merged, s.inputMax, factor)
	if err != nil {
		return nil, s, nil, err
	}
	for r, st := range walked {
		kernel, err := qnn.StageCost(st.Ops, s.sched[r].in)
		if err != nil {
			return nil, s, nil, err
		}
		muls, err := qnn.MulCount(st.Ops, s.sched[r].in)
		if err != nil {
			return nil, s, nil, err
		}
		stages = append(stages, linearStage{Stage: backend.Stage{Ops: st.Ops, Muls: muls}, slotBits: st.SlotBits(), kernel: kernel})
	}
	return merged, s, stages, nil
}

// BuildModelProvider constructs the model-provider role alone: it needs
// the network (its own weights) and only the data provider's PUBLIC key.
func BuildModelProvider(net *nn.Network, pk *paillier.PublicKey, cfg Config) (*ModelProvider, error) {
	_, sched, stages, err := walk(net, cfg.Factor)
	if err != nil {
		return nil, err
	}
	return newModelProvider(sched, stages, pk, cfg.Workers)
}

// newModelProvider builds a model provider for pk from a walk, each stage
// on workers threads (at least one): it refuses a key that cannot hold one
// reply slot of every round with a *SlotError, adds the key's reply terms
// to each stage's counts and installs the all-Paillier plan. The stages
// are copied; their ops and the schedule are shared read-only.
func newModelProvider(s roundSchedule, stages []linearStage, pk *paillier.PublicKey, workers int) (*ModelProvider, error) {
	if err := pk.Validate(); err != nil {
		return nil, err
	}
	mp := &ModelProvider{
		roundPlan: privacyMax(s),
		pk:        pk,
		eval:      paillier.NewEvaluator(pk, nil),
		state:     map[uint64]*obfuscate.Rounds{},
	}
	for r, st := range stages {
		if pk.Slots(st.slotBits) < 1 {
			return nil, &SlotError{Stage: s.sched[r].name, SlotBits: st.slotBits, KeyBits: pk.Bits()}
		}
		st.Threads = max(workers, 1)
		outs := s.sched[r].out.Size()
		st.replies = pk.PackedLen(outs, st.slotBits)
		replies := uint64(st.replies)
		st.kernel.Add(obs.CostStats{
			MulMods: pk.PackMulMods(outs, st.slotBits),
			Rerands: replies, ModExps: replies, PoolMisses: replies,
		})
		mp.stages = append(mp.stages, &st)
	}
	return mp, nil
}

// BuildDataProvider constructs the data-provider role alone, from the
// private key and the network's architecture: its shapes and layer kinds
// fix the round schedule, and no linear weight is ever read, so a network
// whose weights are all NaN builds the same role. A reply is decoded at
// the slot width it carries; a key too small for a round's slots is
// refused by the model provider, at the Hello.
func BuildDataProvider(net *nn.Network, sk *paillier.PrivateKey, cfg Config) (*DataProvider, error) {
	merged, sched, err := schedule(net, cfg.Factor)
	if err != nil {
		return nil, err
	}
	dp := &DataProvider{
		roundPlan: privacyMax(sched),
		sk:        sk,
		factor:    cfg.Factor,
	}
	for r := range sched.sched {
		dp.stages = append(dp.stages, &nonLinearStage{layers: merged[2*r+1].Layers, threads: max(cfg.Workers, 1)})
	}
	return dp, nil
}

// Build validates the network's protocol shape, quantizes its linear
// stages at cfg.Factor for the model provider, and wires the two roles in
// one process (tests, the CipherBase baseline, and the single-host
// engine); the data provider is BuildDataProvider's, built from the
// architecture alone. The private key stays inside the data provider; the
// model provider receives only the public key.
func Build(net *nn.Network, key *paillier.PrivateKey, cfg Config) (*Protocol, error) {
	merged, sched, stages, err := walk(net, cfg.Factor)
	if err != nil {
		return nil, err
	}
	mp, err := newModelProvider(sched, stages, &key.PublicKey, cfg.Workers)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(merged))
	for i, m := range merged {
		names[i] = m.Name()
	}
	dp, err := BuildDataProvider(net, key, cfg)
	if err != nil {
		return nil, err
	}
	return &Protocol{Model: mp, Data: dp, StageNames: names}, nil
}

// Rounds returns the number of linear/non-linear round pairs.
func (p *Protocol) Rounds() int { return len(p.Model.stages) }

// ApplyProfile solves the backend assignment for the given deployment
// profile and clear boundary, as the caller sets it (no clear execution
// when boundary <= 0), and installs it on both roles, returning the plan.
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
// the input encryption, and each merged stage in StageNames order. It needs
// only shapes, weights and the key — no ciphertext:
//
//   - linear round r: the kernel's count (qnn.StageCost), Pack's
//     multiplications, and one inline re-randomization per reply;
//   - non-linear round r: one decryption per reply (two half-size
//     exponentiations each), then the next round's input encryptions;
//   - encryption: one per input element, each two multiplications and
//     the key holder's two half-size exponentiations.
func (p *Protocol) StageCosts() (encrypt obs.CostStats, merged []obs.CostStats) {
	sched := p.Model.sched
	for r, st := range p.Model.stages {
		nonLinear := decryptions(st.replies)
		if r+1 < len(sched) {
			nonLinear.Add(encryptions(sched[r+1].in.Size()))
		}
		merged = append(merged, st.kernel, nonLinear)
	}
	return encryptions(sched[0].in.Size()), merged
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
// the reference execution used by tests and the CipherBase baseline. A
// session (the streaming engine's among them) runs the same per-stage
// methods, each linear round as one of its stages. Infer applies no
// admission control, and drops the request's permutation state as it
// returns.
func (p *Protocol) Infer(req uint64, x *tensor.Dense) (*tensor.Dense, error) {
	defer p.Model.Forget(req)
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

// roundPlan is a role's round schedule and its per-round backend
// assignment. Both roles embed one, built from the same schedule; it
// always holds a plan — Build* installs privacy-max's all-Paillier one —
// and every replacement passes backend.ValidateAssignment, the rules both
// roles know. The model provider adds ss-gc's ring, against the slot
// widths only it holds.
type roundPlan struct {
	// The schedule is fixed at Build; the client's Hello carries its
	// exponents and its input domain.
	roundSchedule
	planMu sync.RWMutex
	kinds  []backend.Kind
}

// privacyMax is the all-Paillier plan of the schedule.
func privacyMax(s roundSchedule) roundPlan {
	kinds := make([]backend.Kind, len(s.sched))
	for r := range kinds {
		kinds[r] = backend.PaillierHE
	}
	return roundPlan{roundSchedule: s, kinds: kinds}
}

// exps returns each round's reply exponent, the vector a Hello carries.
func (p *roundPlan) exps() []int32 {
	exps := make([]int32, len(p.sched))
	for r, rs := range p.sched {
		exps[r] = rs.exp
	}
	return exps
}

// SetBackendPlan installs the session's per-round backend assignment once
// it passes backend.ValidateAssignment. Safe to call concurrently with
// round processing.
func (p *roundPlan) SetBackendPlan(plan []backend.Kind) error {
	if err := backend.ValidateAssignment("", plan, len(p.sched)); err != nil {
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

// linearStage is what the model provider adds to a round of the schedule:
// the backend's view of its linear stage plus what the planner and the
// reply packing need.
type linearStage struct {
	backend.Stage
	// slotBits is the reply slot width W (qnn.Stage.SlotBits), fixed at
	// Build.
	slotBits int
	// kernel is what a paillier-he pass meters here with no blinding pool:
	// the walk counts the kernel, and each model provider adds its key's
	// reply terms (Pack's multiplications, one inline blinding per reply)
	// and sets replies, the reply's ciphertext count at slotBits.
	replies int
	kernel  obs.CostStats
}

// ModelProvider executes linear stages under the session's per-round
// backend plan and manages per-request obfuscation state. It never sees
// the private key.
type ModelProvider struct {
	roundPlan
	pk   *paillier.PublicKey
	eval *paillier.Evaluator
	// pool is eval's blinding pool (nil: every factor inline).
	pool   *paillier.Pool
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
		outs := mp.sched[r].out.Size()
		info := backend.LayerInfo{
			Name:     mp.sched[r].name,
			Outs:     outs,
			SlotBits: st.slotBits,
			Replies:  st.replies,
			HE:       st.kernel,
			SSGC:     obs.CostStats{Triples: st.Muls, OpenedWords: 4*st.Muls + 2*uint64(outs), PlainOps: uint64(outs)},
			Clear:    obs.CostStats{PlainOps: st.Muls},
		}
		info.HE.Add(decryptions(st.replies))
		if r > 0 {
			// The data provider encodes the round's input for its backend.
			in := mp.sched[r].in.Size()
			info.HE.Add(encryptions(in))
			info.SSGC.PlainOps += uint64(in)
			info.Clear.PlainOps += uint64(in)
		}
		if mp.sched[r].garbleReLU {
			info.SSGC.Add(backend.ReLUCost(outs))
		}
		out[r] = info
	}
	return out
}

// applyProfile solves the backend plan for profile and the operator's
// clear boundary — <= 0 admits no round, so none runs in the clear — and
// installs it.
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

// SetBackendPlan installs the session's per-round backend assignment once
// it passes the rules both roles check (roundPlan.SetBackendPlan) and
// ss-gc's ring, against the rounds' slot widths.
func (mp *ModelProvider) SetBackendPlan(plan []backend.Kind) error {
	if err := backend.CheckRing(plan, mp.LayerInfos()); err != nil {
		return fmt.Errorf("protocol: %w", err)
	}
	return mp.roundPlan.SetBackendPlan(plan)
}

// SetBlindPool replaces the evaluator's reply blinding pool (nil: every
// factor inline).
func (mp *ModelProvider) SetBlindPool(pool *paillier.Pool) {
	mp.eval, mp.pool = paillier.NewEvaluator(mp.pk, pool), pool
}

// NewBlindPool builds the provider's blinding pool and installs it. Every
// packed reply ciphertext is re-randomized, and pooled r^n factors keep
// those exponentiations off the round-trip critical path. The pool holds
// what window requests consume at once under the installed backend plan —
// the packed replies of its Paillier rounds — and no more, because every
// factor is a public-key r^n paid whether or not a request ever draws it.
// Each factor the fill worker precomputes is charged to reg's
// "cost.modexps", so per-request meters only ever see the pool misses
// they caused inline. The caller closes the pool.
func (mp *ModelProvider) NewBlindPool(window int, reg *obs.Registry) *paillier.Pool {
	replies := 0
	for r, info := range mp.LayerInfos() {
		if mp.RoundBackend(r) == backend.PaillierHE {
			replies += info.Replies
		}
	}
	pool := paillier.NewPool(mp.pk, nil, max(replies*window, 1), 1,
		paillier.WithPrecomputeHook(reg.Counter("cost.modexps").Add))
	reg.GaugeFunc("pool.workers.alive", pool.AliveWorkers)
	mp.SetBlindPool(pool)
	return pool
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

// forSession returns ServeSession's provider for one session: it shares
// mp's key, evaluator, blinding pool and stages, and has its own plan —
// starting from mp's slice, which SetBackendPlan replaces, never writes —
// and permutation state, so its requests' IDs never meet another user's.
func (mp *ModelProvider) forSession() *ModelProvider {
	mp.planMu.RLock()
	defer mp.planMu.RUnlock()
	return &ModelProvider{
		roundPlan: roundPlan{roundSchedule: mp.roundSchedule, kinds: mp.kinds},
		pk:        mp.pk, eval: mp.eval, pool: mp.pool, stages: mp.stages,
		state: map[uint64]*obfuscate.Rounds{},
	}
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
	if r < len(mp.stages)-1 {
		permStart := time.Now()
		perm, err := mp.rounds(env.Req).Next(mp.sched[r].out.Size())
		if err != nil {
			return nil, tm, err
		}
		if out, err = out.ApplyPerm(perm); err != nil {
			return nil, tm, err
		}
		tm.Permute += time.Since(permStart)
	}
	reply := &Envelope{Req: env.Req, Payload: *out}
	if out.Kind == backend.PaillierHE {
		// The kernel's rows are unblinded; Pack is where they are
		// re-randomized, a slot-full per blinding factor.
		packStart := time.Now()
		packed, err := ev.Pack(out.CT.Data(), st.slotBits, st.Threads)
		if err != nil {
			return nil, tm, err
		}
		tm.Pack = time.Since(packStart)
		reply.CT, reply.SlotBits = packed, st.slotBits
	}
	return reply, tm, nil
}

// roundInput checks that env is what round r's linear stage takes — the
// planned backend, one value per ciphertext, the stage's input size — and
// returns its payload in the stage's input shape, undoing the previous
// round's permutation in every round but the first. The stage evaluates
// the input at scale F¹, where the data provider encodes every round's.
func (mp *ModelProvider) roundInput(r int, env *Envelope, tm *LinearTiming) (*backend.Payload, error) {
	shape := mp.sched[r].in
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
	if size != shape.Size() {
		return nil, fmt.Errorf("protocol: linear stage %d input size %d, want %v", r, size, shape)
	}
	if r == 0 {
		return env.Payload.Reshape(shape)
	}
	start := time.Now()
	perm, err := mp.rounds(env.Req).Pop()
	if err != nil {
		return nil, err
	}
	in, err := env.Payload.InvertPerm(perm, shape)
	tm.Permute += time.Since(start)
	return in, err
}

// nonLinearStage is what the data provider adds to a round of the
// schedule: the round's non-linear layers and their threads.
type nonLinearStage struct {
	layers  []nn.Layer
	threads int
}

// DataProvider holds the private key and the architecture, never a
// weight: it encrypts inputs and evaluates non-linear stages on plaintext.
// Under a backend plan it also decodes each round's payload per its
// backend (decrypt / reconstruct shares / pass plaintext through) and
// re-encodes for the next round's backend.
type DataProvider struct {
	roundPlan
	sk     *paillier.PrivateKey
	factor int64
	stages []*nonLinearStage

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

// EncryptThreads is the thread count round r's input is encrypted on: the
// threads of non-linear stage r−1, which produces it and which StageCosts
// charges its encryptions to, and stage 0's for the raw input of round 0.
func (dp *DataProvider) EncryptThreads(r int) int { return dp.stages[max(r-1, 0)].threads }

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
	ct, err := dp.sk.EncryptTensor(nil, qnn.ScaleInput(x, dp.factor), dp.EncryptThreads(0), m)
	if err != nil {
		return nil, err
	}
	// Round 0 is always paillier-he regardless of plan: the raw input
	// leaves the data provider only under encryption.
	return &Envelope{Req: req, Payload: backend.Payload{Kind: backend.PaillierHE, CT: ct}}, nil
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
	st, rs := dp.stages[r], dp.sched[r]
	if kind := dp.RoundBackend(r); env.Kind != kind {
		return nil, fmt.Errorf("protocol: round %d reply arrived as %q, session plan assigns %q", r, env.Kind, kind)
	}
	vals, err := dp.open(r, env, m)
	if err != nil {
		return nil, err
	}
	// Only the last round arrives unpermuted: its SoftMax is
	// position-dependent.
	if r == len(dp.stages)-1 {
		cur, err := vals.Reshape(rs.out...)
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
		if li == 0 && rs.garbleReLU && env.Kind == backend.SSGC {
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
// circuit first (exact on ring integers: a sign test at scale F^exp
// commutes with descaling), so only the fresh output shares are opened —
// or take clear integers as they are. The reply must hold the round's
// output values — a packed one, PackedLen of them at the slot width it
// carries — and they are descaled at the round's reply exponent.
func (dp *DataProvider) open(r int, env *Envelope, m *obs.CostMeter) (*tensor.Dense, error) {
	st, rs := dp.stages[r], dp.sched[r]
	count, want := rs.out.Size(), rs.out.Size()
	if env.Kind == backend.PaillierHE {
		want = dp.sk.PackedLen(count, env.SlotBits)
	}
	size, err := env.Payload.Size()
	if err != nil {
		return nil, fmt.Errorf("protocol: non-linear stage %d: %w", r, err)
	}
	if size != want {
		return nil, fmt.Errorf("protocol: round %d reply has %d elements, stage %v takes %d", r, size, rs.out, want)
	}
	ints := env.Plain
	switch env.Kind {
	case backend.PaillierHE:
		if ints, err = dp.sk.Unpack(env.CT, env.SlotBits, count, st.threads); err != nil {
			return nil, err
		}
		n := uint64(env.CT.Size())
		m.Add(obs.CostStats{Decrypts: n, ModExps: 2 * n})
	case backend.SSGC:
		shares := env.Sh.Data()
		if rs.garbleReLU {
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
	return qnn.Descale(ints, dp.factor, int(rs.exp))
}

// encodeFor packs the next round's scaled input in the representation
// its planned backend expects: Paillier ciphertexts, fresh additive
// shares, or plaintext integers (past the clear boundary).
func (dp *DataProvider) encodeFor(req uint64, nextRound int, scaled *tensor.Tensor[int64], m *obs.CostMeter) (*Envelope, error) {
	next := dp.RoundBackend(nextRound)
	env := &Envelope{Req: req, Payload: backend.Payload{Kind: next}}
	switch next {
	case backend.PaillierHE:
		ct, err := dp.sk.EncryptTensor(nil, scaled, dp.EncryptThreads(nextRound), m)
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
	shape := mp.sched[r].in
	for _, op := range mp.stages[r].Ops {
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
