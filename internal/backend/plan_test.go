package backend

import (
	"testing"
)

// heartLayers mirrors the Heart model's three FC rounds: the shape the
// mixed-profile e2e test serves. At the 2048-bit key these tests plan
// for, 26 of its 77-bit slots fit one plaintext, so every round's reply
// is a single ciphertext.
func heartLayers() []LayerInfo {
	return []LayerInfo{
		{Name: "fc1", Muls: 13 * 16, Outs: 16, Replies: 1, SlotBits: 77, ReluFollows: true},
		{Name: "fc2", Muls: 16 * 8, Outs: 8, Replies: 1, SlotBits: 77, ReluFollows: true},
		{Name: "fc3", Muls: 8 * 2, Outs: 2, Replies: 1, SlotBits: 77, ReluFollows: false},
	}
}

// TestPlanPinnedModels pins the assignments of the two benchmark models
// at the benchmark's key sizes and scaling factor (100), from the
// LayerInfos their providers report (protocol.TestLayerInfosHeart checks
// the Heart ones stay what is written here). Before replies were packed
// round 1 of both went to ss-gc under either profile: every output paid a
// blinding exponentiation, which a garbled ReLU undercut. One blinding
// per reply ciphertext reverses that at these sizes — measured, not only
// modelled: Heart at 1024 bits runs [paillier-he paillier-he clear]
// about a tenth faster than [paillier-he ss-gc clear]. Re-pinned when the
// slot widths began to follow the models' declared input domains (73–76
// bits and 4 / 19 replies before): narrower slots make the Paillier rounds
// cheaper still, so the assignments hold with more margin.
func TestPlanPinnedModels(t *testing.T) {
	heart1024 := []LayerInfo{
		{Name: "fc1", Muls: 204, Outs: 16, Replies: 1, SlotBits: 23, ReluFollows: true},
		{Name: "fc2", Muls: 126, Outs: 8, Replies: 1, SlotBits: 25, ReluFollows: true},
		{Name: "fc3", Muls: 16, Outs: 2, Replies: 1, SlotBits: 27},
	}
	mnist512 := []LayerInfo{
		{Name: "flatten+fc1", Muls: 47235, Outs: 64, Replies: 3, SlotBits: 20, ReluFollows: true},
		{Name: "fc2", Muls: 2005, Outs: 32, Replies: 2, SlotBits: 23, ReluFollows: true},
		{Name: "fc3", Muls: 318, Outs: 10, Replies: 1, SlotBits: 26},
	}
	for _, c := range []struct {
		name    string
		layers  []LayerInfo
		keyBits int
	}{{"Heart/1024", heart1024, 1024}, {"MNIST-1/512", mnist512, 512}} {
		for _, profile := range []Profile{ProfileMixed, ProfileLatency} {
			p, err := PlanFor(profile, c.layers, 2, c.keyBits)
			if err != nil {
				t.Fatal(err)
			}
			want := []Kind{PaillierHE, PaillierHE, Clear}
			for r, k := range p.Assignment {
				if k != want[r] {
					t.Errorf("%s under %s = %v, want %v", c.name, profile, p.Assignment, want)
					break
				}
			}
		}
	}
}

func TestPlanPrivacyMaxAllPaillier(t *testing.T) {
	p, err := PlanFor(ProfilePrivacyMax, heartLayers(), 2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for r, k := range p.Assignment {
		if k != PaillierHE {
			t.Fatalf("privacy-max round %d = %q", r, k)
		}
	}
}

func TestPlanMixedUsesAllThreeBackends(t *testing.T) {
	// The acceptance-critical shape: on the Heart model with the
	// boundary certified at round 2, the mixed profile must produce
	// [paillier-he, ss-gc, clear].
	p, err := PlanFor(ProfileMixed, heartLayers(), 2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{PaillierHE, SSGC, Clear}
	for r, k := range p.Assignment {
		if k != want[r] {
			t.Fatalf("mixed assignment = %v, want %v", p.Assignment, want)
		}
	}
	if err := ValidateAssignment(ProfileMixed, p.Assignment, 3); err != nil {
		t.Fatal(err)
	}
}

func TestPlanLatencyRespectsBoundary(t *testing.T) {
	// Boundary at 3 (= rounds): no clear anywhere, round 0 paillier.
	p, err := PlanFor(ProfileLatency, heartLayers(), 3, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if p.Assignment[0] != PaillierHE {
		t.Fatalf("round 0 = %q", p.Assignment[0])
	}
	for r, k := range p.Assignment {
		if k == Clear {
			t.Fatalf("clear at round %d despite boundary %d", r, p.Boundary)
		}
	}
	// Boundary 1: the whole suffix past round 0 may go clear.
	p, err = PlanFor(ProfileLatency, heartLayers(), 1, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if p.Assignment[0] != PaillierHE {
		t.Fatalf("round 0 = %q", p.Assignment[0])
	}
	for r := 1; r < len(p.Assignment); r++ {
		if p.Assignment[r] != Clear {
			t.Fatalf("latency boundary-1 assignment = %v, want clear tail", p.Assignment)
		}
	}
}

func TestPlanBoundaryClamped(t *testing.T) {
	// Boundary 0 would let round 0 run clear; it must clamp to 1.
	p, err := PlanFor(ProfileLatency, heartLayers(), 0, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if p.Assignment[0] != PaillierHE {
		t.Fatalf("clamp failed: round 0 = %q", p.Assignment[0])
	}
	if p.Boundary != 1 {
		t.Fatalf("boundary = %d, want 1", p.Boundary)
	}
	// Oversized boundary clamps to rounds.
	p, err = PlanFor(ProfileLatency, heartLayers(), 99, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if p.Boundary != 3 {
		t.Fatalf("boundary = %d, want 3", p.Boundary)
	}
}

func TestPlanCodesRoundTrip(t *testing.T) {
	p, err := PlanFor(ProfileMixed, heartLayers(), 2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	back, err := AssignmentFromCodes(p.Codes())
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range back {
		if k != p.Assignment[i] {
			t.Fatalf("codes round trip %v -> %v", p.Assignment, back)
		}
	}
	if _, err := AssignmentFromCodes([]int32{0, 7}); err == nil {
		t.Error("bad code accepted")
	}
}

func TestValidateAssignment(t *testing.T) {
	cases := []struct {
		name    string
		profile Profile
		plan    []Kind
		rounds  int
		ok      bool
	}{
		{"legacy", ProfilePrivacyMax, LegacyPlan(3), 3, true},
		{"mixed ok", ProfileMixed, []Kind{PaillierHE, SSGC, Clear}, 3, true},
		{"length", ProfileMixed, []Kind{PaillierHE}, 3, false},
		{"round0 ssgc", ProfileMixed, []Kind{SSGC, SSGC, Clear}, 3, false},
		{"round0 clear", ProfileLatency, []Kind{Clear, Clear, Clear}, 3, false},
		{"privacy-max violated", ProfilePrivacyMax, []Kind{PaillierHE, SSGC, PaillierHE}, 3, false},
		{"clear sandwich", ProfileLatency, []Kind{PaillierHE, Clear, SSGC}, 3, false},
		{"unknown kind", ProfileLatency, []Kind{PaillierHE, "rot13", Clear}, 3, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := ValidateAssignment(c.profile, c.plan, c.rounds)
			if (err == nil) != c.ok {
				t.Fatalf("err = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestParseProfile(t *testing.T) {
	if p, err := ParseProfile(""); err != nil || p != ProfilePrivacyMax {
		t.Fatalf("empty profile -> %q (%v), want privacy-max", p, err)
	}
	for _, p := range []Profile{ProfileLatency, ProfilePrivacyMax, ProfileMixed} {
		got, err := ParseProfile(string(p))
		if err != nil || got != p {
			t.Fatalf("profile %q round trip failed (%v)", p, err)
		}
	}
	if _, err := ParseProfile("turbo"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestEstimateCostOrdering(t *testing.T) {
	// Structural sanity of the cost model: clear < ss-gc < paillier at
	// every realistic layer size, and Paillier grows with key bits.
	shapes := []CostShape{
		{Muls: 16, Outs: 2, Replies: 1, SlotBits: 77, KeyBits: 2048, ReluFollows: false},
		{Muls: 208, Outs: 16, Replies: 1, SlotBits: 77, KeyBits: 2048, ReluFollows: true},
		{Muls: 100000, Outs: 4000, Replies: 154, SlotBits: 77, KeyBits: 2048, ReluFollows: true},
	}
	pb, _ := For(PaillierHE)
	sb, _ := For(SSGC)
	cb, _ := For(Clear)
	for _, cs := range shapes {
		p, s, c := pb.EstimateCost(cs), sb.EstimateCost(cs), cb.EstimateCost(cs)
		if !(c < s && s < p) {
			t.Fatalf("cost ordering broken at %+v: clear %v, ssgc %v, paillier %v", cs, c, s, p)
		}
	}
	small := pb.EstimateCost(CostShape{Muls: 100, Outs: 10, Replies: 1, SlotBits: 77, KeyBits: 1024})
	large := pb.EstimateCost(CostShape{Muls: 100, Outs: 10, Replies: 1, SlotBits: 77, KeyBits: 4096})
	if large <= small {
		t.Fatalf("paillier cost does not grow with key bits: %v vs %v", small, large)
	}
	// Packing is priced: more outputs per reply ciphertext cost less than
	// one ciphertext each, but not nothing.
	unpacked := pb.EstimateCost(CostShape{Muls: 100, Outs: 10, Replies: 10, SlotBits: 77, KeyBits: 1024})
	bare := pb.EstimateCost(CostShape{Muls: 100, Outs: 1, Replies: 1, SlotBits: 77, KeyBits: 1024})
	if !(bare < small && small < unpacked) {
		t.Fatalf("packed-reply pricing out of order: 1 output %v, 10 packed %v, 10 unpacked %v", bare, small, unpacked)
	}
}
