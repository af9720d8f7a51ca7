package protocol

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mathrand "math/rand"
	"slices"
	"strings"
	"testing"

	"ppstream/internal/backend"
	"ppstream/internal/garble"
	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/secshare"
	"ppstream/internal/tensor"
)

// TestWireRoundTripSharedEnvelope round-trips an ss-gc envelope: the
// share words must survive the wire exactly, in flat order, and the
// decoded payload must be ss-gc's.
func TestWireRoundTripSharedEnvelope(t *testing.T) {
	k := key(t)
	sh := tensor.New[secshare.Shares](2, 3)
	for i := range sh.Data() {
		s, err := secshare.SplitRandom(rand.Reader, uint64(1000*i)-uint64(i*i))
		if err != nil {
			t.Fatal(err)
		}
		sh.Data()[i] = s
	}
	env := &Envelope{Req: 7, Payload: backend.Payload{Kind: backend.SSGC, Sh: sh}}
	w, err := ToWire(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Cipher) != 0 || len(w.Plain) != 0 {
		t.Fatal("ss-gc wire envelope carries foreign payloads")
	}
	got, err := FromWire(w, &k.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != backend.SSGC || got.Req != 7 || !got.Sh.Shape().Equal(tensor.Shape{6}) {
		t.Fatalf("decoded envelope: %+v, want request 7's six ss-gc elements", got)
	}
	for i, s := range got.Sh.Data() {
		if s != sh.Data()[i] {
			t.Fatalf("share %d changed across the wire: %v != %v", i, s, sh.Data()[i])
		}
	}
	if w.CipherBytes() == 0 {
		t.Error("shared envelope reports zero wire bytes")
	}
}

// TestWireRoundTripClearEnvelope round-trips a clear envelope including
// negative values (sign-magnitude encoding), and rejects malformed
// plaintext elements and an envelope whose vectors name no backend or
// two.
func TestWireRoundTripClearEnvelope(t *testing.T) {
	k := key(t)
	vals := []int64{0, 1, -1, 123456789, -987654321}
	pl := tensor.New[*big.Int](len(vals))
	for i, v := range vals {
		pl.Data()[i] = big.NewInt(v)
	}
	env := &Envelope{Req: 9, Payload: backend.Payload{Kind: backend.Clear, Plain: pl}}
	w, err := ToWire(env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromWire(w, &k.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != backend.Clear {
		t.Fatalf("decoded backend %q, want clear", got.Kind)
	}
	for i, v := range got.Plain.Data() {
		if v.Int64() != vals[i] {
			t.Fatalf("plain element %d: got %v, want %d", i, v, vals[i])
		}
	}

	// Malformed plaintext vectors must be rejected. (A bad sign byte or an
	// over-wide element never gets this far: TestHostilePeerFields shows
	// the edge decoder refusing them.)
	for name, mut := range map[string]func(*WireEnvelope){
		"nil element": func(w *WireEnvelope) { w.Plain = append([]*big.Int{nil}, w.Plain[1:]...) },
		"oversized": func(w *WireEnvelope) {
			w.Plain = append([]*big.Int{new(big.Int).Lsh(big.NewInt(1), 8*maxPlainElementBytes)}, w.Plain[1:]...)
		},
		"no vector":   func(w *WireEnvelope) { w.Plain = nil },
		"two vectors": func(w *WireEnvelope) { w.Shares0, w.Shares1 = []uint64{1}, []uint64{2} },
	} {
		bad, err := ToWire(env)
		if err != nil {
			t.Fatal(err)
		}
		mut(bad)
		if _, err := FromWire(bad, &k.PublicKey); err == nil {
			t.Errorf("%s: FromWire accepted a malformed clear payload", name)
		}
	}
}

// TestApplyPlanDifferential is the protocol-level differential test:
// every valid backend assignment over the three-round net must produce
// the SAME output as the all-Paillier baseline, bit for bit — the
// backends compute identical integer arithmetic, only under different
// protection.
func TestApplyPlanDifferential(t *testing.T) {
	k := key(t)
	netw := buildNet3(t)
	proto, err := Build(netw, k, Config{Factor: 1000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := mathrand.New(mathrand.NewSource(43))
	x := tensor.Zeros(4)
	for i := range x.Data() {
		x.Data()[i] = r.NormFloat64()
	}

	base, err := proto.Infer(100, x)
	if err != nil {
		t.Fatal(err)
	}

	P, S, C := backend.PaillierHE, backend.SSGC, backend.Clear
	req := uint64(101)
	for _, plan := range [][]backend.Kind{
		{P, P, P},
		{P, S, P},
		{P, S, S},
		{P, P, C},
		{P, S, C},
		{P, C, C},
	} {
		if err := applyPlan(proto, plan); err != nil {
			t.Fatalf("plan %v: %v", plan, err)
		}
		got, err := proto.Infer(req, x)
		req++
		if err != nil {
			t.Fatalf("plan %v: infer: %v", plan, err)
		}
		for i, v := range got.Data() {
			if v != base.Data()[i] {
				t.Fatalf("plan %v: output[%d] = %v, baseline %v — backends are not plaintext-identical",
					plan, i, v, base.Data()[i])
			}
		}
	}

	// Unsafe assignments must be refused: round 0 off Paillier, and a
	// clear round before a stronger one.
	for _, plan := range [][]backend.Kind{
		{S, P, P},
		{C, P, P},
		{P, C, S},
	} {
		if err := applyPlan(proto, plan); err == nil {
			t.Errorf("the roles accepted unsafe assignment %v", plan)
		}
	}
}

// TestRolesRefuseTheSamePlans: the model and the data provider check a
// backend plan by the rules both know, so on a network whose rounds all
// fit ss-gc's ring neither installs a plan the other refuses — the
// server's role no more than the client's.
func TestRolesRefuseTheSamePlans(t *testing.T) {
	k := key(t)
	mp, err := BuildModelProvider(buildNet3(t), &k.PublicKey, Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := BuildDataProvider(buildNet3(t), k, Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	P, S, C := backend.PaillierHE, backend.SSGC, backend.Clear
	for _, c := range []struct {
		plan []backend.Kind
		ok   bool
	}{
		{[]backend.Kind{P, P, P}, true},
		{[]backend.Kind{P, S, C}, true},
		{[]backend.Kind{P, C, C}, true},
		{[]backend.Kind{P, C, S}, false}, // clear must be a suffix
		{[]backend.Kind{P, C, P}, false},
		{[]backend.Kind{S, P, P}, false}, // the input must stay encrypted
		{[]backend.Kind{C, C, C}, false},
		{[]backend.Kind{P, "rot13", P}, false},
		{[]backend.Kind{P, P}, false},
		{nil, false},
	} {
		for role, set := range map[string]func([]backend.Kind) error{"model": mp.SetBackendPlan, "data": dp.SetBackendPlan} {
			if err := set(c.plan); (err == nil) != c.ok {
				t.Errorf("%s provider: plan %v: err %v, want ok=%v", role, c.plan, err, c.ok)
			}
		}
	}
}

// TestSSGCNeverRunsPastItsRing: a round whose outputs need more bits than
// ss-gc's ring Z_{2^64} holds never runs on ss-gc. Round 1 merges four FC
// layers, so at factor 10^4 its outputs are at scale F^5 = 10^20 ≈ 2^66.4
// even over the declared input domain;
// with 64 inputs and 2 outputs it is the shape that ss-gc wins by a wide
// margin wherever it may run. Latency and mixed plans must keep it on
// paillier-he and give privacy-max's output bit for bit, and the model
// provider, the one role that holds the slot widths, refuses a plan that
// puts it on ss-gc.
func TestSSGCNeverRunsPastItsRing(t *testing.T) {
	r := mathrand.New(mathrand.NewSource(47))
	netw, err := nn.NewNetwork("deep-middle", tensor.Shape{4},
		nn.NewFC("fc1", 4, 64, r), nn.NewReLU("relu1"),
		nn.NewFC("fc2", 64, 8, r), nn.NewFC("fc3", 8, 8, r), nn.NewFC("fc4", 8, 8, r), nn.NewFC("fc5", 8, 2, r),
		nn.NewReLU("relu2"),
		nn.NewFC("fc6", 2, 2, r), nn.NewSoftMax("softmax"))
	if err != nil {
		t.Fatal(err)
	}
	netw.InputMax = 1
	proto, err := Build(netw, keyOfBits(t, 1024), Config{Factor: 10000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bits := proto.Model.stages[1].slotBits; bits <= 64 {
		t.Fatalf("round 1 needs %d-bit slots, want more than the ring's 64", bits)
	}
	x := tensor.MustFromSlice([]float64{0.9, -0.6, 0.75, 0.3}, 4)
	want, err := proto.Infer(1, x)
	if err != nil {
		t.Fatal(err)
	}
	for i, profile := range []backend.Profile{backend.ProfileLatency, backend.ProfileMixed} {
		plan, err := proto.ApplyProfile(profile, 0)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Assignment[1] == backend.SSGC {
			t.Errorf("%s plan %v runs round 1 on ss-gc", profile, plan.Assignment)
		}
		got, err := proto.Infer(uint64(2+i), x)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Data(), want.Data()) {
			t.Errorf("%s plan %v: output %v, privacy-max %v", profile, plan.Assignment, got.Data(), want.Data())
		}
	}

	P, S := backend.PaillierHE, backend.SSGC
	if err := proto.Model.SetBackendPlan([]backend.Kind{P, S, P}); err == nil || !strings.Contains(err.Error(), "ring") {
		t.Errorf("model provider installed ss-gc on round 1: %v", err)
	}
}

// applyPlan installs plan on both roles of an in-process protocol.
func applyPlan(p *Protocol, plan []backend.Kind) error {
	if err := p.Model.SetBackendPlan(plan); err != nil {
		return err
	}
	return p.Data.SetBackendPlan(plan)
}

// TestMixedProfileEndToEndAllBackends is the tentpole acceptance test:
// a mixed-profile session over live TCP runs at least one round on each
// backend within a single request, the merged TraceTree labels every
// kernel segment with its backend, the server's registry carries
// nonzero per-backend cost counters, and the result still matches the
// plaintext forward pass.
func TestMixedProfileEndToEndAllBackends(t *testing.T) {
	netw := buildNet3(t)
	reg := obs.NewRegistry("mixed-e2e")
	// A 2048-bit key: large enough that the planner's Paillier cost
	// estimate genuinely loses to ss-gc on ReLU-followed rounds even when
	// the round's outputs pack into one reply ciphertext, so the mixed plan
	// picks all three backends on its own.
	h := open(t, opening{tcp: true, net: netw, key: keyOfBits(t, 2048),
		cfg: SessionConfig{
			MaxWorkers:    2,
			Window:        2,
			Registry:      reg,
			Profile:       backend.ProfileLatency, // permissive policy: the client's ask decides
			ClearBoundary: 2,
		},
		opts: ClientOptions{Workers: 1, Window: 2, Profile: backend.ProfileMixed}})
	client, ctx := h.client, h.ctx

	r := mathrand.New(mathrand.NewSource(47))
	x := tensor.Zeros(4)
	for i := range x.Data() {
		x.Data()[i] = r.NormFloat64()
	}
	got, tree, err := client.InferTraced(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := netw.Forward(x)
	if !tensor.AllClose(want, got, 1e-2) {
		t.Errorf("mixed-profile inference diverges from plaintext forward: got %v want %v",
			got.Data(), want.Data())
	}

	// One request, three backends: every kernel segment names its
	// backend, and all three appear.
	perRound := map[int]string{}
	for _, s := range tree.Segments {
		if s.Party == "server" && s.Name == "kernel" {
			if s.Backend == "" {
				t.Errorf("round %d kernel segment has no backend label", s.Round)
			}
			perRound[s.Round] = s.Backend
		}
	}
	wantAssign := map[int]string{0: "paillier-he", 1: "ss-gc", 2: "clear"}
	for rd, wantB := range wantAssign {
		if perRound[rd] != wantB {
			t.Errorf("round %d ran on %q, want %q (assignment %v)", rd, perRound[rd], wantB, perRound)
		}
	}
	for _, label := range []string{
		"server-kernel[paillier-he]", "server-kernel[ss-gc]", "server-kernel[clear]",
	} {
		found := false
		for _, s := range tree.Segments {
			if s.Label() == label {
				found = true
			}
		}
		if !found {
			t.Errorf("merged trace lacks a %s segment", label)
		}
	}

	client.Close()
	if err := h.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}

	// The server's registry carries nonzero per-backend cost counters
	// for every backend the plan used.
	snap := reg.Snapshot()
	for _, name := range []string{
		"cost.paillier_he.mulmods",
		"cost.ss_gc.triples",
		"cost.ss_gc.opened_words",
		"cost.clear.plain_ops",
	} {
		if snap.Counters[name] == 0 {
			var have []string
			for n, v := range snap.Counters {
				if strings.HasPrefix(n, "cost.") && v > 0 {
					have = append(have, fmt.Sprintf("%s=%d", n, v))
				}
			}
			t.Errorf("per-backend counter %s is zero after a mixed-profile request (nonzero: %v)", name, have)
		}
	}
}

// TestPrivacyMaxClientNeverWeakens checks negotiation from the client
// side: a privacy-max client against a permissive latency server with a
// certified boundary still gets the all-Paillier plan — the stricter
// side wins — installed by NewClient before the first request.
func TestPrivacyMaxClientNeverWeakens(t *testing.T) {
	h := open(t, opening{tcp: true, net: buildNet3(t), key: keyOfBits(t, 2048),
		cfg:  SessionConfig{MaxWorkers: 2, Window: 2, Profile: backend.ProfileLatency, ClearBoundary: 2},
		opts: ClientOptions{Workers: 1, Window: 2, Profile: backend.ProfilePrivacyMax}})
	client, ctx := h.client, h.ctx
	for r := range client.dp.stages {
		if kind := client.dp.RoundBackend(r); kind != backend.PaillierHE {
			t.Fatalf("privacy-max client opened with round %d on %q", r, kind)
		}
	}
	x := tensor.Zeros(4)
	x.Data()[0] = 1
	_, tree, err := client.InferTraced(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tree.Segments {
		if s.Party == "server" && s.Name == "kernel" && s.Backend != "paillier-he" {
			t.Errorf("privacy-max session ran round %d on %q", s.Round, s.Backend)
		}
	}
	client.Close()
	if err := h.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestSessionRunsBaseOTsOnce: a mixed-profile session whose middle round
// garbles its ReLU runs the base OTs of its OT extension once, at its
// first request — every later request's garbled ReLU uses the same setup —
// and a second session runs its own. The middle round takes 64 inputs to
// 2 outputs, so on paillier-he it would cost 64 encryptions against two
// garbled ReLUs on ss-gc: the measured plan puts it on ss-gc by a wide
// margin on any host, race detector included. The inputs are declared
// within ±1, which keeps the round's values inside ss-gc's ring.
func TestSessionRunsBaseOTsOnce(t *testing.T) {
	r := mathrand.New(mathrand.NewSource(43))
	netw, err := nn.NewNetwork("wide-then-narrow", tensor.Shape{4},
		nn.NewFC("fc1", 4, 64, r),
		nn.NewReLU("relu1"),
		nn.NewFC("fc2", 64, 2, r),
		nn.NewReLU("relu2"),
		nn.NewFC("fc3", 2, 2, r),
		nn.NewSoftMax("softmax"),
	)
	if err != nil {
		t.Fatal(err)
	}
	netw.InputMax = 1
	const factor, requests = 100, 3
	var setups []*garble.OTSetup
	for session := 0; session < 2; session++ {
		h := open(t, opening{tcp: true, net: netw, key: keyOfBits(t, 1024),
			cfg:  SessionConfig{Factor: factor, MaxWorkers: 1, Window: 1, Profile: backend.ProfileMixed, ClearBoundary: 2},
			opts: ClientOptions{Workers: 1, Window: 1, Profile: backend.ProfileMixed}})
		client := h.client
		if client.dp.ot != nil {
			t.Fatal("the OT setup ran before any request needed it")
		}
		var setup *garble.OTSetup
		for i := 0; i < requests; i++ {
			x := tensor.Zeros(netw.InputShape...)
			for j := range x.Data() {
				x.Data()[j] = float64((i+j)%7)/4 - 0.75
			}
			got, err := client.Infer(h.ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := netw.Forward(x); !tensor.AllClose(want, got, 1e-2) {
				t.Errorf("session %d request %d: %v, plaintext forward %v", session, i, got.Data(), want.Data())
			}
			if kind := client.dp.RoundBackend(1); kind != backend.SSGC {
				t.Fatalf("round 1 runs on %s, want ss-gc", kind)
			}
			if i == 0 {
				setup = client.dp.ot
			}
			if setup == nil || client.dp.ot != setup {
				t.Fatalf("session %d request %d: OT setup %p, want the first request's %p", session, i, client.dp.ot, setup)
			}
		}
		client.Close()
		if err := h.wait(); err != nil {
			t.Fatalf("server: %v", err)
		}
		setups = append(setups, setup)
	}
	if setups[0] == setups[1] {
		t.Error("two sessions share one OT setup")
	}
}

// ssgcLeaks lists the rounds that show their input to the model role: per
// plan the safety rules accept for buildNet3, every ss-gc round before the
// clear boundary. The model role decodes both share words of each input
// element there, and their sum is the element (ROADMAP "ss-gc rounds show
// their input to the model provider"). Taking ss-gc off serving turns each
// entry into a failure.
var ssgcLeaks = []struct {
	plan  string
	round int
}{
	{"[paillier-he paillier-he ss-gc]", 2},
	{"[paillier-he ss-gc paillier-he]", 1},
	{"[paillier-he ss-gc ss-gc]", 1},
	{"[paillier-he ss-gc ss-gc]", 2},
	{"[paillier-he ss-gc clear]", 1},
}

// TestModelRoleSeesOnlyCiphertextsBeforeClear walks one input through every
// plan the safety rules accept. Each paillier-he round before the clear
// boundary reaches the model role as ciphertexts and nothing else: the wire
// envelope FromWire decodes carries no plaintext and no share words. Each
// ss-gc round before it hands the model role share words that sum to the
// round's scaled input, compared as a multiset against the all-Paillier
// walk's; the rounds where that holds must be exactly ssgcLeaks.
func TestModelRoleSeesOnlyCiphertextsBeforeClear(t *testing.T) {
	k := key(t)
	const rounds = 3
	var plans [][]backend.Kind
	for _, a := range backend.Kinds() {
		for _, b := range backend.Kinds() {
			for _, c := range backend.Kinds() {
				plan := []backend.Kind{a, b, c}
				if backend.ValidateAssignment(backend.ProfileLatency, plan, rounds) == nil {
					plans = append(plans, plan)
				}
			}
		}
	}
	if len(plans) != 7 {
		t.Fatalf("%d plans accepted, want 7: %v", len(plans), plans)
	}
	x := tensor.MustFromSlice([]float64{0.5, -0.25, 1, 0.75}, 4)
	// walk runs x through plan, calling see with what the model role
	// decodes of each round before the clear boundary.
	walk := func(plan []backend.Kind, see func(r int, w *WireEnvelope, in *Envelope)) {
		t.Helper()
		proto, err := Build(buildNet3(t), k, Config{Factor: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if err := applyPlan(proto, plan); err != nil {
			t.Fatal(err)
		}
		env, err := proto.Data.EncryptMetered(1, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds && plan[r] != backend.Clear; r++ {
			w, err := ToWire(env)
			if err != nil {
				t.Fatal(err)
			}
			in, err := FromWire(w, &k.PublicKey)
			if err != nil {
				t.Fatal(err)
			}
			see(r, w, in)
			reply, _, err := proto.Model.ProcessLinearMetered(r, in, nil)
			if err != nil {
				t.Fatal(err)
			}
			if env, err = proto.Data.ProcessNonLinearMetered(r, reply, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The all-Paillier walk's round inputs, decrypted and sorted.
	var want [rounds][]int64
	walk([]backend.Kind{backend.PaillierHE, backend.PaillierHE, backend.PaillierHE}, func(r int, _ *WireEnvelope, in *Envelope) {
		for _, ct := range in.CT.Data() {
			v, err := k.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			want[r] = append(want[r], v.Int64())
		}
		slices.Sort(want[r])
	})

	var leaks []string
	for _, plan := range plans {
		walk(plan, func(r int, w *WireEnvelope, in *Envelope) {
			switch plan[r] {
			case backend.PaillierHE:
				if len(w.Cipher) == 0 || len(w.Plain) != 0 || len(w.Shares0) != 0 || len(w.Shares1) != 0 {
					t.Fatalf("plan %v round %d: the model role is sent %d ciphertexts, %d plaintexts, %d+%d share words", plan, r, len(w.Cipher), len(w.Plain), len(w.Shares0), len(w.Shares1))
				}
				if in.Kind != backend.PaillierHE || in.CT == nil || in.Plain != nil || in.Sh != nil {
					t.Fatalf("plan %v round %d: the model role decodes a %q payload", plan, r, in.Kind)
				}
			case backend.SSGC:
				if in.Sh == nil {
					t.Fatalf("plan %v round %d: the model role decodes a %q payload with no shares", plan, r, in.Kind)
				}
				var sums []int64
				for _, s := range in.Sh.Data() {
					sums = append(sums, secshare.SignedOfRing(s.Reconstruct()))
				}
				slices.Sort(sums)
				if slices.Equal(sums, want[r]) {
					leaks = append(leaks, fmt.Sprintf("%v r%d", plan, r))
				}
			}
		})
	}
	var listed []string
	for _, l := range ssgcLeaks {
		listed = append(listed, fmt.Sprintf("%s r%d", l.plan, l.round))
	}
	if !slices.Equal(leaks, listed) {
		t.Errorf("the model role reads the input of %v, ssgcLeaks lists %v", leaks, listed)
	}
}
