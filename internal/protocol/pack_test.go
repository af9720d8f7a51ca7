package protocol

import (
	"errors"
	"fmt"
	"math/big"
	mathrand "math/rand"
	"testing"

	"ppstream/internal/backend"
	"ppstream/internal/models"
	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/tensor"
)

// TestReplyEgressInvariant runs an all-zero-weight model twice on
// identical inputs, round by round, and requires of every reply that its
// ciphertexts differ between the two runs and that exactly one
// re-randomization was counted per reply ciphertext — whether a stage
// runs on one thread or is split over two.
func TestReplyEgressInvariant(t *testing.T) {
	k := key(t)
	for _, threads := range []int{1, 2} {
		proto, err := Build(zeroWeightNet(t), k, Config{Factor: 1000, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < proto.Rounds(); r++ {
			if err := proto.Model.SetStageThreads(r, threads); err != nil {
				t.Fatal(err)
			}
		}
		in, err := proto.Data.EncryptMetered(1, tensor.MustFromSlice([]float64{0.3, -0.7, 1.1, 0}, 4), nil)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < proto.Rounds(); r++ {
			var replies [2]*Envelope
			for run := range replies {
				// The same input ciphertexts under two request IDs (each
				// request has its own permutation state).
				env := *in
				env.Req = uint64(run + 1)
				var m obs.CostMeter
				reply, _, err := proto.Model.ProcessLinearMetered(r, &env, &m)
				if err != nil {
					t.Fatalf("threads=%d round %d run %d: %v", threads, r, run, err)
				}
				if got, want := m.Snapshot().Rerands, uint64(reply.CT.Size()); got != want {
					t.Errorf("threads=%d round %d: %d re-randomizations for %d reply ciphertexts", threads, r, got, want)
				}
				replies[run] = reply
			}
			a, b := replies[0].CT.Data(), replies[1].CT.Data()
			if len(a) != len(b) {
				t.Fatalf("round %d: reply lengths %d vs %d", r, len(a), len(b))
			}
			for i := range a {
				if a[i].Value().Cmp(b[i].Value()) == 0 {
					t.Errorf("threads=%d round %d: reply ciphertext %d identical across two runs — an unblinded row left the model provider", threads, r, i)
				}
			}
			if in, err = proto.Data.ProcessNonLinearMetered(r, replies[0], nil); err != nil {
				t.Fatal(err)
			}
		}
		if in.Result == nil {
			t.Fatal("walk ended without a result")
		}
	}
}

// TestSlotErrorAtBuild: a key that cannot hold one slot of a stage's
// output bound is refused when the roles are built, with a typed error
// naming the stage — not at the first inference.
func TestSlotErrorAtBuild(t *testing.T) {
	k := keyOfBits(t, 128)
	r := mathrand.New(mathrand.NewSource(5))
	net, err := nn.NewNetwork("wide-weights", tensor.Shape{8},
		nn.NewFC("fc1", 8, 8, r), nn.NewFC("fc2", 8, 2, r), nn.NewSoftMax("sm"))
	if err != nil {
		t.Fatal(err)
	}
	// One linear stage of two layers whose weights are 10⁻³ at F = 10¹²,
	// 10⁹ once scaled (an int32 holds it): each row's L1 norm is 8·10⁹ >
	// 2³², so with 2⁶³ inputs — the network declares no input domain, and
	// the chain then starts where it always did — the bound passes 2¹²⁸ and
	// needs a slot of over 128 bits.
	net.Layers[0].(*nn.FC).W.Fill(1e-3)
	net.Layers[1].(*nn.FC).W.Fill(1e-3)
	_, err = Build(net, k, Config{Factor: 1e12})
	var slotErr *SlotError
	if !errors.As(err, &slotErr) {
		t.Fatalf("Build under a 128-bit key = %v, want a *SlotError", err)
	}
	if slotErr.Stage == "" || slotErr.KeyBits != 128 || slotErr.SlotBits <= 126 {
		t.Errorf("SlotError = %+v", slotErr)
	}
	if _, err := Build(net, key(t), Config{Factor: 1e12}); err != nil {
		t.Errorf("the same model under a 256-bit key: %v", err)
	}
}

// TestClientRefusesMisshapenReplies: the data provider decodes a packed
// reply at the slot width it carries, and refuses one with one ciphertext
// more than the round's values pack into at that width, an unpacked one,
// and a clear reply with one value more than the stage takes; the model
// provider refuses a packed reply as a round input.
func TestClientRefusesMisshapenReplies(t *testing.T) {
	k := key(t)
	real, err := Build(buildNet3(t), k, Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	in, err := real.Data.EncryptMetered(1, tensor.MustFromSlice([]float64{0.3, -0.7, 1.1, 0}, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	good, _, err := real.Model.ProcessLinearMetered(0, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrongSize := *good
	wrongSize.CT = tensor.MustFromSlice(append(good.CT.Data()[:good.CT.Size():good.CT.Size()], good.CT.Data()[0]), good.CT.Size()+1)
	if _, err := real.Data.ProcessNonLinearMetered(0, &wrongSize, nil); err == nil {
		t.Error("client accepted a reply packing the wrong number of values")
	}
	unpacked := *good
	unpacked.SlotBits = 0
	if _, err := real.Data.ProcessNonLinearMetered(0, &unpacked, nil); err == nil {
		t.Error("client accepted an unpacked reply")
	}
	if _, _, err := real.Model.ProcessLinearMetered(1, good, nil); err == nil {
		t.Error("model provider accepted a packed reply as a round input")
	}
	if _, err := real.Data.ProcessNonLinearMetered(0, good, nil); err != nil {
		t.Errorf("the honest reply: %v", err)
	}
	if err := real.Data.SetBackendPlan([]backend.Kind{backend.PaillierHE, backend.Clear, backend.Clear}); err != nil {
		t.Fatal(err)
	}
	long := tensor.New[*big.Int](6) // round 1's stage takes 5
	for i := range long.Data() {
		long.SetFlat(i, big.NewInt(int64(i)))
	}
	if _, err := real.Data.ProcessNonLinearMetered(1, &Envelope{Req: 1, Payload: backend.Payload{Kind: backend.Clear, Plain: long}}, nil); err == nil {
		t.Error("client accepted a clear reply of 6 values for a stage of 5")
	}
}

// TestLayerInfosHeart pins what the planner sees of the benchmark's Heart
// model at its key size and factor: backend.TestPlanPinnedModels plans
// from a copy of these numbers. The widths are the chained ones (re-pinned
// from 73/73/73 and 2+1+1 replies): round 0 starts from the declared
// |x| ≤ 64, not 2⁶³, and each later round from the previous bound through
// ReLU. The same network with no declared domain — what a model file
// written before the field existed loads as — keeps the old numbers, which
// differ only in the replies and Pack's multiplications. Per backend:
// paillier-he past round 0 pays the data provider's encryption of the
// round's 16 or 8 inputs; ss-gc pays a triple per non-zero weight (204,
// 126, 16) and, after fc1 and fc2, the garbled ReLU's 314 AND gates and 64
// extension OTs per output.
func TestLayerInfosHeart(t *testing.T) {
	spec, err := models.ByName("Heart")
	if err != nil {
		t.Fatal(err)
	}
	net, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	undeclared := net.Clone()
	undeclared.InputMax = 0
	ssgc := []obs.CostStats{
		{Triples: 204, OpenedWords: 848, GCGates: 5024, ExtOTs: 1024, PlainOps: 16},
		{Triples: 126, OpenedWords: 520, GCGates: 2512, ExtOTs: 512, PlainOps: 24},
		{Triples: 16, OpenedWords: 68, PlainOps: 10},
	}
	clear := []obs.CostStats{{PlainOps: 204}, {PlainOps: 142}, {PlainOps: 24}}
	type round struct {
		outs, replies, slotBits int
		he                      obs.CostStats
	}
	for _, c := range []struct {
		net  *nn.Network
		want []round
	}{
		{net, []round{
			{16, 1, 23, obs.CostStats{ModExps: 3, MulMods: 913, ModInverses: 1, Rerands: 1, PoolMisses: 1, Decrypts: 1}},
			{8, 1, 25, obs.CostStats{ModExps: 35, MulMods: 598, ModInverses: 1, Rerands: 1, PoolMisses: 1, Encrypts: 16, Decrypts: 1}},
			{2, 1, 27, obs.CostStats{ModExps: 19, MulMods: 119, ModInverses: 1, Rerands: 1, PoolMisses: 1, Encrypts: 8, Decrypts: 1}},
		}},
		{undeclared, []round{
			{16, 2, 73, obs.CostStats{ModExps: 6, MulMods: 1591, ModInverses: 1, Rerands: 2, PoolMisses: 2, Decrypts: 2}},
			{8, 1, 73, obs.CostStats{ModExps: 35, MulMods: 934, ModInverses: 1, Rerands: 1, PoolMisses: 1, Encrypts: 16, Decrypts: 1}},
			{2, 1, 73, obs.CostStats{ModExps: 19, MulMods: 165, ModInverses: 1, Rerands: 1, PoolMisses: 1, Encrypts: 8, Decrypts: 1}},
		}},
	} {
		mp, err := BuildModelProvider(c.net, &keyOfBits(t, 1024).PublicKey, Config{Factor: 100})
		if err != nil {
			t.Fatal(err)
		}
		for r, got := range mp.LayerInfos() {
			w := c.want[r]
			if got.Outs != w.outs || got.Replies != w.replies || mp.stages[r].slotBits != w.slotBits ||
				got.HE != w.he || got.SSGC != ssgc[r] || got.Clear != clear[r] {
				t.Errorf("input domain ±%v round %d: %d outputs, %d replies of %d-bit slots, paillier-he %+v, ss-gc %+v, clear %+v; want %+v, ss-gc %+v, clear %+v",
					c.net.InputMax, r, got.Outs, got.Replies, mp.stages[r].slotBits, got.HE, got.SSGC, got.Clear, w, ssgc[r], clear[r])
			}
		}
	}
}

// TestLayerInfosAreWhatAWalkMeters: on Heart at 256 bits, a request walked
// under each admissible kind of plan meters exactly its input encryption
// plus every round's LayerInfo count on the backend the plan gives it,
// field by field — the counts backend.PlanFor prices. The data provider's
// OT setup runs before the walk, as a session runs it once.
func TestLayerInfosAreWhatAWalkMeters(t *testing.T) {
	spec, err := models.ByName("Heart")
	if err != nil {
		t.Fatal(err)
	}
	net, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	proto, err := Build(net, keyOfBits(t, 256), Config{Factor: 100, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proto.Data.gcOT(); err != nil {
		t.Fatal(err)
	}
	infos := proto.Model.LayerInfos()
	he, ssgc, clear := backend.PaillierHE, backend.SSGC, backend.Clear
	x := tensor.Zeros(net.InputShape...)
	for i := range x.Data() {
		x.Data()[i] = float64(i%5) - 2
	}
	for i, plan := range [][]backend.Kind{{he, he, he}, {he, ssgc, clear}, {he, ssgc, ssgc}, {he, he, clear}, {he, clear, clear}, {he, he, ssgc}} {
		if err := proto.Model.SetBackendPlan(plan); err != nil {
			t.Fatal(err)
		}
		if err := proto.Data.SetBackendPlan(plan); err != nil {
			t.Fatal(err)
		}
		want := encryptions(net.InputShape.Size())
		for r, k := range plan {
			want.Add(infos[r].Cost(k))
		}
		var m obs.CostMeter
		req := uint64(i + 1)
		env, err := proto.Data.EncryptMetered(req, x, &m)
		if err != nil {
			t.Fatal(err)
		}
		for r := range plan {
			if env, _, err = proto.Model.ProcessLinearMetered(r, env, &m); err != nil {
				t.Fatal(err)
			}
			if env, err = proto.Data.ProcessNonLinearMetered(r, env, &m); err != nil {
				t.Fatal(err)
			}
		}
		proto.Model.Forget(req)
		if got := m.Snapshot(); got != want {
			t.Errorf("%v: metered %+v, LayerInfos add up to %+v", plan, got, want)
		}
	}
}

// TestBenchShapesReplyCounts pins, for the benchmark's four workloads
// (model, key size, backend plan; factor 100), how many reply ciphertexts
// one request costs: the planner's LayerInfos().Replies over the plan's
// Paillier rounds, the packed length of each reply on the way, and the
// data provider's metered decryptions are the same number — 88, 6, 3 and
// 1, where the int64-wide slots needed 407, 19, 4 and 3 (heart-mixed's 1
// is its round 0: it plans [paillier-he ss-gc clear], which
// backend.TestPlanPinnedModels pins, and is set here rather than solved
// from this host's unit costs).
func TestBenchShapesReplyCounts(t *testing.T) {
	he, ssgc, clear := backend.PaillierHE, backend.SSGC, backend.Clear
	for _, c := range []struct {
		workload, model string
		keyBits         int
		plan            []backend.Kind
		want            int
	}{
		{"conv-engine", "MNIST-2", 256, []backend.Kind{he, he, he}, 88},
		{"mnist-fc-stream", "MNIST-1", 512, []backend.Kind{he, he, he}, 6},
		{"heart-seq", "Heart", 1024, []backend.Kind{he, he, he}, 3},
		{"heart-mixed", "Heart", 1024, []backend.Kind{he, ssgc, clear}, 1},
	} {
		spec, err := models.ByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		net, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		k := keyOfBits(t, c.keyBits)
		proto, err := Build(net, k, Config{Factor: 100, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := proto.Model.SetBackendPlan(c.plan); err != nil {
			t.Fatal(err)
		}
		if err := proto.Data.SetBackendPlan(c.plan); err != nil {
			t.Fatal(err)
		}
		planned := 0
		infos := proto.Model.LayerInfos()
		for r, kind := range c.plan {
			if kind == backend.PaillierHE {
				planned += infos[r].Replies
			}
		}
		x := tensor.Zeros(net.InputShape...)
		for i := range x.Data() {
			x.Data()[i] = float64(i%4) * 0.25
		}
		env, err := proto.Data.EncryptMetered(1, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		sent := 0
		var client obs.CostMeter
		for r := 0; r < proto.Rounds(); r++ {
			if env, _, err = proto.Model.ProcessLinearMetered(r, env, nil); err != nil {
				t.Fatal(err)
			}
			if env.CT != nil {
				if got, want := env.CT.Size(), k.PackedLen(infos[r].Outs, proto.Model.stages[r].slotBits); got != want {
					t.Errorf("%s round %d: reply of %d ciphertexts, PackedLen %d", c.workload, r, got, want)
				}
				sent += env.CT.Size()
			}
			if env, err = proto.Data.ProcessNonLinearMetered(r, env, &client); err != nil {
				t.Fatal(err)
			}
		}
		proto.Model.Forget(1)
		if decrypts := int(client.Snapshot().Decrypts); planned != c.want || sent != c.want || decrypts != c.want {
			t.Errorf("%s (%v): %d replies planned, %d sent, %d decrypted, want %d of each", c.workload, c.plan, planned, sent, decrypts, c.want)
		}
	}
}

// TestModelsBitIdenticalAcrossPlansAndKeys: every model tier-1 runs end to
// end produces the same output bit for bit under privacy-max, mixed and
// latency plans and under 256-, 512- and 1024-bit keys — whose plaintexts
// hold 3, 6 and 13 slots, so the packing differs in every column — and
// that output matches the plaintext forward pass.
func TestModelsBitIdenticalAcrossPlansAndKeys(t *testing.T) {
	names := []string{"Breast", "Heart", "Cardio", "MNIST-1", "MNIST-2"}
	sizes := []int{256, 512, 1024}
	if testing.Short() {
		names, sizes = names[:2], sizes[:2]
	}
	for _, name := range names {
		spec, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		net, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		r := mathrand.New(mathrand.NewSource(61))
		x := tensor.Zeros(net.InputShape...)
		for i := range x.Data() {
			x.Data()[i] = r.Float64() - 0.5
		}
		want, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		var ref *tensor.Dense
		for _, bits := range sizes {
			proto, err := Build(net, keyOfBits(t, bits), Config{Factor: 100, Workers: 2})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, bits, err)
			}
			ran := map[string]bool{}
			for i, profile := range []backend.Profile{backend.ProfilePrivacyMax, backend.ProfileMixed, backend.ProfileLatency} {
				plan, err := proto.ApplyProfile(profile, 2)
				if err != nil {
					t.Fatalf("%s/%d/%s: %v", name, bits, profile, err)
				}
				// Two profiles that solve to one assignment run the same code.
				sig := fmt.Sprint(plan.Assignment)
				if ran[sig] {
					continue
				}
				ran[sig] = true
				got, err := proto.Infer(uint64(bits+i), x)
				if err != nil {
					t.Fatalf("%s/%d/%s: %v", name, bits, profile, err)
				}
				if ref == nil {
					ref = got
					if !tensor.AllClose(want, got, 5e-2) {
						t.Errorf("%s: protocol output %v diverges from the plaintext forward pass %v", name, got.Data(), want.Data())
					}
				}
				for j, v := range got.Data() {
					if v != ref.Data()[j] {
						t.Fatalf("%s/%d/%s: output[%d] = %v, reference %v", name, bits, profile, j, v, ref.Data()[j])
					}
				}
			}
		}
	}
}
