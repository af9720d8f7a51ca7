package protocol

import (
	"crypto/rand"
	"errors"
	"fmt"
	mathrand "math/rand"
	"sync"
	"testing"

	"ppstream/internal/backend"
	"ppstream/internal/models"
	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/tensor"
)

var (
	sizedKeysMu sync.Mutex
	sizedKeys   = map[int]*paillier.PrivateKey{}
)

// keyOfBits returns a shared test key of the given size.
func keyOfBits(t testing.TB, bits int) *paillier.PrivateKey {
	t.Helper()
	sizedKeysMu.Lock()
	defer sizedKeysMu.Unlock()
	if k := sizedKeys[bits]; k != nil {
		return k
	}
	k, err := paillier.GenerateKey(rand.Reader, bits)
	if err != nil {
		t.Fatal(err)
	}
	sizedKeys[bits] = k
	return k
}

// zeroWeightNet is buildNet3 with every weight zeroed and every bias 0.5:
// each kernel row is then the deterministic embedding of the same bias,
// whatever the input and whatever the permutation — the case that leaked
// before rows were blinded, and that only Pack's blinding hides now.
func zeroWeightNet(t *testing.T) *nn.Network {
	t.Helper()
	net := buildNet3(t)
	for _, l := range net.Layers {
		if fc, ok := l.(*nn.FC); ok {
			fc.W.Fill(0)
			fc.B.Fill(0.5)
		}
	}
	return net
}

// TestReplyEgressInvariant runs an all-zero-weight model twice on
// identical inputs, round by round, and requires of every reply that its
// ciphertexts differ between the two runs and that exactly one
// re-randomization was counted per reply ciphertext — under the shared
// memory executor (qnn.ApplyStage) and the partitioned one
// (partition.ExecuteStage) alike.
func TestReplyEgressInvariant(t *testing.T) {
	k := key(t)
	for _, partitioned := range []bool{false, true} {
		proto, err := Build(zeroWeightNet(t), k, Config{Factor: 1000, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if partitioned {
			for r := 0; r < proto.Rounds(); r++ {
				if err := proto.Model.SetStagePlan(r, 2, true); err != nil {
					t.Fatal(err)
				}
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
					t.Fatalf("partitioned=%v round %d run %d: %v", partitioned, r, run, err)
				}
				if got, want := m.Snapshot().Rerands, uint64(reply.CT.Size()); got != want {
					t.Errorf("partitioned=%v round %d: %d re-randomizations for %d reply ciphertexts", partitioned, r, got, want)
				}
				replies[run] = reply
			}
			a, b := replies[0].CT.Data(), replies[1].CT.Data()
			if len(a) != len(b) {
				t.Fatalf("round %d: reply lengths %d vs %d", r, len(a), len(b))
			}
			for i := range a {
				if a[i].Value().Cmp(b[i].Value()) == 0 {
					t.Errorf("partitioned=%v round %d: reply ciphertext %d identical across two runs — an unblinded row left the model provider", partitioned, r, i)
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
		nn.NewFC("fc1", 8, 2, r), nn.NewSoftMax("sm"))
	if err != nil {
		t.Fatal(err)
	}
	// Eight weights of 10⁶ at F = 10¹²: a row's L1 norm is 8·10¹⁸ ≥ 2⁶²,
	// so with 2⁶³ inputs — the network declares no input domain, and the
	// chain then starts where it always did — the bound needs a 127-bit
	// slot.
	net.Layers[0].(*nn.FC).W.Fill(1e6)
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

// TestClientRefusesNarrowSlots: the data provider checks a reply's slot
// width against its own copy of the stage bound. A model provider whose
// weights imply narrower slots than the client's (here: zeroed weights
// against the real ones) could overflow them, and is refused; so are a
// reply claiming the wrong logical size and an unpacked one.
func TestClientRefusesNarrowSlots(t *testing.T) {
	k := key(t)
	real, err := Build(buildNet3(t), k, Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := BuildModelProvider(zeroWeightNet(t), &k.PublicKey, Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if narrow.stages[0].slotBits >= real.Model.stages[0].slotBits {
		t.Fatalf("zeroed weights imply %d-bit slots, real ones %d", narrow.stages[0].slotBits, real.Model.stages[0].slotBits)
	}
	in, err := real.Data.EncryptMetered(1, tensor.MustFromSlice([]float64{0.3, -0.7, 1.1, 0}, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	reply, _, err := narrow.ProcessLinearMetered(0, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := real.Data.ProcessNonLinearMetered(0, reply, nil); err == nil {
		t.Error("client accepted a reply with slots narrower than its stage bound needs")
	}

	good, _, err := real.Model.ProcessLinearMetered(0, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrongSize := *good
	wrongSize.Shape = tensor.Shape{good.Shape.Size() + 1}
	if _, err := real.Data.ProcessNonLinearMetered(0, &wrongSize, nil); err == nil {
		t.Error("client accepted a reply packing the wrong number of values")
	}
	unpacked := *good
	unpacked.SlotBits, unpacked.Shape = 0, nil
	if _, err := real.Data.ProcessNonLinearMetered(0, &unpacked, nil); err == nil {
		t.Error("client accepted an unpacked reply")
	}
	if _, _, err := real.Model.ProcessLinearMetered(1, good, nil); err == nil {
		t.Error("model provider accepted a packed reply as a round input")
	}
	if _, err := real.Data.ProcessNonLinearMetered(0, good, nil); err != nil {
		t.Errorf("the honest reply: %v", err)
	}
}

// TestLayerInfosHeart pins what the planner sees of the benchmark's Heart
// model at its key size and factor: backend.TestPlanPinnedModels plans
// from a copy of these numbers. The widths are the chained ones (re-pinned
// from 73/73/73 and 2+1+1 replies): round 0 starts from the declared
// |x| ≤ 64, not 2⁶³, and each later round from the previous bound through
// ReLU. The same network with no declared domain — what a model file
// written before the field existed loads as — keeps the old numbers.
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
	for _, c := range []struct {
		net  *nn.Network
		want []backend.LayerInfo
	}{
		{net, []backend.LayerInfo{
			{Muls: 204, Outs: 16, Replies: 1, SlotBits: 23, ReluFollows: true},
			{Muls: 126, Outs: 8, Replies: 1, SlotBits: 25, ReluFollows: true},
			{Muls: 16, Outs: 2, Replies: 1, SlotBits: 27},
		}},
		{undeclared, []backend.LayerInfo{
			{Muls: 204, Outs: 16, Replies: 2, SlotBits: 73, ReluFollows: true},
			{Muls: 126, Outs: 8, Replies: 1, SlotBits: 73, ReluFollows: true},
			{Muls: 16, Outs: 2, Replies: 1, SlotBits: 73},
		}},
	} {
		mp, err := BuildModelProvider(c.net, &keyOfBits(t, 1024).PublicKey, Config{Factor: 100})
		if err != nil {
			t.Fatal(err)
		}
		for r, got := range mp.LayerInfos() {
			got.Name = ""
			if got != c.want[r] {
				t.Errorf("input domain ±%v round %d: %+v, want %+v", c.net.InputMax, r, got, c.want[r])
			}
		}
	}
}

// TestBenchShapesReplyCounts pins, for the benchmark's four workloads
// (model, key size, profile, clear boundary; factor 100), how many reply
// ciphertexts one request costs: the planner's LayerInfos().Replies over
// the plan's Paillier rounds, the packed length of each reply on the way,
// and the data provider's metered decryptions are the same number — 88, 6,
// 3 and 2, where the int64-wide slots needed 407, 19, 4 and 3.
func TestBenchShapesReplyCounts(t *testing.T) {
	for _, c := range []struct {
		workload, model string
		keyBits         int
		profile         backend.Profile
		boundary, want  int
	}{
		{"conv-engine", "MNIST-2", 256, backend.ProfilePrivacyMax, 0, 88},
		{"mnist-fc-stream", "MNIST-1", 512, backend.ProfilePrivacyMax, 0, 6},
		{"heart-seq", "Heart", 1024, backend.ProfilePrivacyMax, 0, 3},
		{"heart-mixed", "Heart", 1024, backend.ProfileMixed, 2, 2},
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
		plan, err := proto.ApplyProfile(c.profile, c.boundary)
		if err != nil {
			t.Fatal(err)
		}
		planned := 0
		infos := proto.Model.LayerInfos()
		for r, kind := range plan.Assignment {
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
				if got, want := env.CT.Size(), k.PackedLen(infos[r].Outs, infos[r].SlotBits); got != want {
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
			t.Errorf("%s (%v): %d replies planned, %d sent, %d decrypted, want %d of each", c.workload, plan.Assignment, planned, sent, decrypts, c.want)
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
