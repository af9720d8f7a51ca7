package backend

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ppstream/internal/obs"
	"ppstream/internal/paillier"
)

// heart1024 is what protocol.TestLayerInfosHeart pins of the benchmark's
// Heart model at 1024 bits and factor 100.
func heart1024() []LayerInfo {
	return []LayerInfo{
		{Name: "fc1", Outs: 16, Replies: 1,
			HE:    obs.CostStats{ModExps: 3, MulMods: 913, ModInverses: 1, Rerands: 1, PoolMisses: 1, Decrypts: 1},
			SSGC:  obs.CostStats{Triples: 204, OpenedWords: 848, GCGates: 5024, ExtOTs: 1024, PlainOps: 16},
			Clear: obs.CostStats{PlainOps: 204}},
		{Name: "fc2", Outs: 8, Replies: 1,
			HE:    obs.CostStats{ModExps: 35, MulMods: 598, ModInverses: 1, Rerands: 1, PoolMisses: 1, Encrypts: 16, Decrypts: 1},
			SSGC:  obs.CostStats{Triples: 126, OpenedWords: 520, GCGates: 2512, ExtOTs: 512, PlainOps: 24},
			Clear: obs.CostStats{PlainOps: 142}},
		{Name: "fc3", Outs: 2, Replies: 1,
			HE:    obs.CostStats{ModExps: 19, MulMods: 119, ModInverses: 1, Rerands: 1, PoolMisses: 1, Encrypts: 8, Decrypts: 1},
			SSGC:  obs.CostStats{Triples: 16, OpenedWords: 68, PlainOps: 10},
			Clear: obs.CostStats{PlainOps: 24}},
	}
}

// mnist512 is the same view of the MNIST-1 model at 512 bits.
func mnist512() []LayerInfo {
	return []LayerInfo{
		{Name: "flatten+fc1", Outs: 64, Replies: 3,
			HE:    obs.CostStats{ModExps: 9, MulMods: 49543, ModInverses: 1, Rerands: 3, PoolMisses: 3, Decrypts: 3},
			SSGC:  obs.CostStats{Triples: 47235, OpenedWords: 189068, GCGates: 20096, ExtOTs: 4096, PlainOps: 64},
			Clear: obs.CostStats{PlainOps: 47235}},
		{Name: "fc2", Outs: 32, Replies: 2,
			HE:    obs.CostStats{ModExps: 134, MulMods: 4411, ModInverses: 1, Rerands: 2, PoolMisses: 2, Encrypts: 64, Decrypts: 2},
			SSGC:  obs.CostStats{Triples: 2005, OpenedWords: 8084, GCGates: 10048, ExtOTs: 2048, PlainOps: 96},
			Clear: obs.CostStats{PlainOps: 2069}},
		{Name: "fc3", Outs: 10, Replies: 1,
			HE:    obs.CostStats{ModExps: 67, MulMods: 1113, ModInverses: 1, Rerands: 1, PoolMisses: 1, Encrypts: 32, Decrypts: 1},
			SSGC:  obs.CostStats{Triples: 318, OpenedWords: 1292, PlainOps: 42},
			Clear: obs.CostStats{PlainOps: 350}},
	}
}

// units1024 and units512 are MeasureUnitCosts on the benchmark host (two
// virtual processors, no SHA extensions), in seconds: the middle one of
// four runs, which between them drifted by up to 2.5× as the host did.
var (
	units1024 = paillier.UnitCosts{MulMod: 3.12e-6, ModInverse: 6.45e-5, Encrypt: 9.59e-4, Decrypt: 9.15e-4,
		Blinding: 2.80e-3, Gate: 1.11e-6, ExtOT: 1.35e-6, Triple: 5.46e-8, PlainOp: 3.63e-8}
	units512 = paillier.UnitCosts{MulMod: 1.28e-6, ModInverse: 2.71e-5, Encrypt: 1.94e-4, Decrypt: 1.94e-4,
		Blinding: 4.73e-4, Gate: 1.06e-6, ExtOT: 1.34e-6, Triple: 5.65e-8, PlainOp: 4.25e-8}
)

// TestPlanPinnedModels pins the assignments of the two benchmark models
// at the benchmark's key sizes and scaling factor (100), under the unit
// costs recorded on the benchmark host. Round 1 goes to ss-gc under either
// profile: its paillier-he price is dominated by the data provider's 16
// (Heart) or 64 (MNIST-1) encryptions of the round's inputs, which the
// garbled ReLU does not need, now that its base OTs run once per session.
// Measured, not only modelled: the benchmark's heart-mixed workload runs
// [paillier-he ss-gc clear] at a p50 of 14.7 ms where it ran
// [paillier-he paillier-he clear] at 25.4 ms (medians of ten pairs on the
// benchmark host, one processor).
// Round 2 goes clear: past the boundary a plain multiply-accumulate
// undercuts a Beaver multiplication and its share conversions.
func TestPlanPinnedModels(t *testing.T) {
	want := []Kind{PaillierHE, SSGC, Clear}
	for _, c := range []struct {
		name   string
		layers []LayerInfo
		units  paillier.UnitCosts
	}{{"Heart/1024", heart1024(), units1024}, {"MNIST-1/512", mnist512(), units512}} {
		for _, profile := range []Profile{ProfileMixed, ProfileLatency} {
			p := planWith(profile, c.layers, 2, c.units)
			if !slices.Equal(p.Assignment, want) {
				t.Errorf("%s under %s = %v, want %v", c.name, profile, p.Assignment, want)
			}
		}
	}
}

// randomUnits draws a unit-cost vector whose every unit spans three
// orders of magnitude, so each backend is cheapest somewhere.
func randomUnits(rng *rand.Rand) paillier.UnitCosts {
	f := func(scale float64) float64 { return scale * math.Exp(rng.Float64()*math.Log(1000)) }
	return paillier.UnitCosts{MulMod: f(1e-7), ModInverse: f(1e-6), Encrypt: f(1e-5), Decrypt: f(1e-5),
		Blinding: f(1e-5), Gate: f(1e-7), ExtOT: f(1e-7), Triple: f(1e-9), PlainOp: f(1e-9)}
}

// randomLayer draws a round's counts: Paillier work that grows with its
// outputs, a garbled ReLU after it or not, and plain work of its own; and
// a slot width that one round in four ss-gc's ring cannot hold.
func randomLayer(rng *rand.Rand) LayerInfo {
	n := func(upTo float64) uint64 { return uint64(math.Exp(rng.Float64() * math.Log(upTo))) }
	outs := 1 + int(n(4000))
	replies := uint64(1 + rng.Intn(outs))
	muls := n(60000)
	l := LayerInfo{Outs: outs, Replies: int(replies),
		HE: obs.CostStats{MulMods: muls + n(1e5), Rerands: replies, ModExps: replies + 2*replies, Decrypts: replies,
			PoolMisses: replies},
		SSGC:  obs.CostStats{Triples: muls, OpenedWords: 4*muls + 2*uint64(outs), PlainOps: uint64(outs)},
		Clear: obs.CostStats{PlainOps: muls},
	}
	if in := n(4000); rng.Intn(2) == 0 {
		l.HE.Add(obs.CostStats{Encrypts: in, MulMods: 2 * in, ModExps: 2 * in})
		l.SSGC.PlainOps += in
		l.Clear.PlainOps += in
	}
	if rng.Intn(2) == 0 {
		l.SSGC.Add(ReLUCost(outs))
	}
	l.SlotBits = 17 + rng.Intn(64)
	return l
}

// TestPlanForMatchesBruteForce checks PlanFor's search (planWith, at the
// units PlanFor would measure) against every one of the 3^L assignments,
// filtered by the safety rules and priced here by the same function,
// paillier.UnitCosts.Price, plus the mixed penalty, on random rounds
// under random unit vectors, all three profiles and every boundary from 0
// to L+1.
func TestPlanForMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	kinds := Kinds()
	optimal := map[Kind]int{}
	for i := 0; i < 12000; i++ {
		rounds := 1 + rng.Intn(6)
		layers := make([]LayerInfo, rounds)
		for l := range layers {
			layers[l] = randomLayer(rng)
		}
		profile := []Profile{ProfileLatency, ProfileMixed, ProfilePrivacyMax}[i%3]
		boundary := rng.Intn(rounds + 2)
		u := randomUnits(rng)

		certified := min(max(boundary, 1), rounds)
		objective := func(a []Kind) (float64, bool) {
			total := 0.0
			for l, k := range a {
				switch {
				case l == 0 && k != PaillierHE,
					profile == ProfilePrivacyMax && k != PaillierHE,
					k == Clear && l < certified,
					k == SSGC && layers[l].SlotBits > 64,
					k != Clear && l > 0 && a[l-1] == Clear:
					return 0, false
				}
				total += u.Price(layers[l].Cost(k))
				if profile == ProfileMixed && k != PaillierHE && l < certified {
					total += 0.5 * 100 * u.Triple * float64(layers[l].Outs)
				}
			}
			return total, true
		}
		var best []Kind
		bestCost, runnerUp := math.Inf(1), math.Inf(1)
		a := make([]Kind, rounds)
		for code := 0; code < int(math.Pow(3, float64(rounds))); code++ {
			for l, c := 0, code; l < rounds; l, c = l+1, c/3 {
				a[l] = kinds[c%3]
			}
			cost, ok := objective(a)
			switch {
			case !ok:
			case cost < bestCost:
				best, bestCost, runnerUp = append([]Kind(nil), a...), cost, bestCost
			case cost < runnerUp:
				runnerUp = cost
			}
		}

		plan := planWith(profile, layers, boundary, u)
		if plan.Boundary != certified {
			t.Fatalf("instance %d: boundary %d clamped to %d, want %d", i, boundary, plan.Boundary, certified)
		}
		if profile == ProfilePrivacyMax {
			// One admissible assignment, and nothing priced.
			if !slices.Equal(plan.Assignment, best) || plan.Objective != 0 {
				t.Fatalf("instance %d: privacy-max plan %v at %v, want %v at 0", i, plan.Assignment, plan.Objective, best)
			}
			continue
		}
		got, ok := objective(plan.Assignment)
		if !ok || !near(got, bestCost) || !near(plan.Objective, bestCost) {
			t.Fatalf("instance %d (%s, boundary %d, %+v, %+v): planWith %v at %v (reported %v, admissible %v), brute force %v at %v",
				i, profile, boundary, u, layers, plan.Assignment, got, plan.Objective, ok, best, bestCost)
		}
		if !near(runnerUp, bestCost) && !slices.Equal(plan.Assignment, best) {
			t.Fatalf("instance %d: planWith %v, unique optimum %v", i, plan.Assignment, best)
		}
		for _, k := range best {
			optimal[k]++
		}
	}
	// The instances must make every backend some round's best choice, or
	// the comparison says nothing about that backend.
	for _, k := range kinds {
		if optimal[k] == 0 {
			t.Errorf("no optimal assignment uses %s: %v", k, optimal)
		}
	}
}

// near compares objectives up to rounding.
func near(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Max(1, math.Abs(y)) }

// TestPlanPrivacyMaxAllPaillier: privacy-max runs every round on
// paillier-he and measures nothing — no unit costs appear for a key size
// it plans.
func TestPlanPrivacyMaxAllPaillier(t *testing.T) {
	const keyBits = 3072 // a key size nothing else in this package measures
	p, err := PlanFor(ProfilePrivacyMax, heart1024(), 2, keyBits)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.Assignment, []Kind{PaillierHE, PaillierHE, PaillierHE}) || p.Objective != 0 {
		t.Fatalf("privacy-max plan %v at %v", p.Assignment, p.Objective)
	}
	units.mu.Lock()
	_, measured := units.byBits[keyBits]
	units.mu.Unlock()
	if measured {
		t.Error("privacy-max measured unit costs")
	}
}

func TestPlanMixedUsesAllThreeBackends(t *testing.T) {
	// The acceptance-critical shape: on the Heart model with the
	// boundary certified at round 2, the mixed profile must produce
	// [paillier-he, ss-gc, clear].
	p := planWith(ProfileMixed, heart1024(), 2, units1024)
	want := []Kind{PaillierHE, SSGC, Clear}
	if !slices.Equal(p.Assignment, want) {
		t.Fatalf("mixed assignment = %v, want %v", p.Assignment, want)
	}
	if err := ValidateAssignment(ProfileMixed, p.Assignment, 3); err != nil {
		t.Fatal(err)
	}
}

// TestPlanMixedPenaltyDecides: a middle round whose ss-gc price undercuts
// its paillier-he price by less than the penalty on its exposed outputs
// stays on paillier-he under mixed and goes to ss-gc under latency; past
// the boundary the penalty no longer applies.
func TestPlanMixedPenaltyDecides(t *testing.T) {
	u := paillier.UnitCosts{Encrypt: 1, Triple: 0.01, PlainOp: 1}
	// Four outputs carry a penalty of 0.5 × 100 × 0.01 × 4 = 2 units;
	// ss-gc saves 1.
	middle := LayerInfo{Outs: 4, HE: obs.CostStats{Encrypts: 3}, SSGC: obs.CostStats{Triples: 200}, Clear: obs.CostStats{PlainOps: 9}}
	layers := []LayerInfo{{Outs: 4}, middle, middle}
	for _, c := range []struct {
		profile  Profile
		boundary int
		want     []Kind
	}{
		{ProfileMixed, 3, []Kind{PaillierHE, PaillierHE, PaillierHE}},
		{ProfileLatency, 3, []Kind{PaillierHE, SSGC, SSGC}},
		{ProfileMixed, 2, []Kind{PaillierHE, PaillierHE, SSGC}},
	} {
		if p := planWith(c.profile, layers, c.boundary, u); !slices.Equal(p.Assignment, c.want) {
			t.Errorf("%s, boundary %d: %v, want %v", c.profile, c.boundary, p.Assignment, c.want)
		}
	}
}

// TestPlanDependsOnUnitRatiosOnly: a round's price is Price of its counts,
// so scaling every unit cost by one factor — a host uniformly slower —
// scales the objective by it and leaves the assignment alone.
func TestPlanDependsOnUnitRatiosOnly(t *testing.T) {
	for _, profile := range []Profile{ProfileMixed, ProfileLatency} {
		base := planWith(profile, heart1024(), 2, units1024)
		var sum float64
		for l, k := range base.Assignment {
			sum += units1024.Price(heart1024()[l].Cost(k))
			if profile == ProfileMixed && k == SSGC {
				sum += mixedPenaltyWeight * penaltyPerOut * units1024.Triple * float64(heart1024()[l].Outs)
			}
		}
		if !near(base.Objective, sum) {
			t.Errorf("%s: objective %v, the assignment's prices add up to %v", profile, base.Objective, sum)
		}
		slow := units1024
		for _, f := range []*float64{&slow.MulMod, &slow.ModInverse, &slow.Encrypt, &slow.Decrypt, &slow.Blinding,
			&slow.Gate, &slow.ExtOT, &slow.Triple, &slow.PlainOp} {
			*f *= 2.5
		}
		p := planWith(profile, heart1024(), 2, slow)
		if !slices.Equal(p.Assignment, base.Assignment) || !near(p.Objective, 2.5*base.Objective) {
			t.Errorf("%s: units ×2.5 plan %v at %v, want %v at %v", profile, p.Assignment, p.Objective, base.Assignment, 2.5*base.Objective)
		}
	}
}

// TestMeasureUnitCostsOncePerKeySize: every unit is measured, and a
// second call at the same key size returns the first measurement.
func TestMeasureUnitCostsOncePerKeySize(t *testing.T) {
	u, err := MeasureUnitCosts(256)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{"MulMod": u.MulMod, "ModInverse": u.ModInverse, "Encrypt": u.Encrypt,
		"Decrypt": u.Decrypt, "Blinding": u.Blinding, "Gate": u.Gate, "ExtOT": u.ExtOT,
		"Triple": u.Triple, "PlainOp": u.PlainOp, "Transfer": u.Transfer} {
		if v <= 0 {
			t.Errorf("%s unit cost %v", name, v)
		}
	}
	if again, err := MeasureUnitCosts(256); err != nil || again != u {
		t.Errorf("second measurement %+v, %v; want the cached %+v", again, err, u)
	}
	if _, err := MeasureUnitCosts(255); err == nil {
		t.Error("odd key size measured")
	}
}

// TestMeasureUnitCostsTransfer: c_elem, one ciphertext through the wire
// codec's copy, is measured in the same cached sweep, and a 2048-bit key's
// is at least half a 512-bit key's (its ciphertexts are four times wider).
func TestMeasureUnitCostsTransfer(t *testing.T) {
	u512, err := MeasureUnitCosts(512)
	if err != nil {
		t.Fatal(err)
	}
	if u512.Transfer <= 0 {
		t.Fatalf("512-bit Transfer %v", u512.Transfer)
	}
	if again, err := MeasureUnitCosts(512); err != nil || again.Transfer != u512.Transfer {
		t.Errorf("second measurement %v, %v; want the cached %v", again.Transfer, err, u512.Transfer)
	}
	u2048, err := MeasureUnitCosts(2048)
	if err != nil {
		t.Fatal(err)
	}
	if u2048.Transfer < u512.Transfer/2 {
		t.Errorf("2048-bit Transfer %v below half the 512-bit %v", u2048.Transfer, u512.Transfer)
	}
}

func TestPlanLatencyRespectsBoundary(t *testing.T) {
	// Boundary at 3 (= rounds): no clear anywhere, round 0 paillier.
	p := planWith(ProfileLatency, heart1024(), 3, units1024)
	if p.Assignment[0] != PaillierHE {
		t.Fatalf("round 0 = %q", p.Assignment[0])
	}
	for r, k := range p.Assignment {
		if k == Clear {
			t.Fatalf("clear at round %d despite boundary %d", r, p.Boundary)
		}
	}
	// Boundary 1: the whole suffix past round 0 may go clear.
	p = planWith(ProfileLatency, heart1024(), 1, units1024)
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
	p := planWith(ProfileLatency, heart1024(), 0, units1024)
	if p.Assignment[0] != PaillierHE {
		t.Fatalf("clamp failed: round 0 = %q", p.Assignment[0])
	}
	if p.Boundary != 1 {
		t.Fatalf("boundary = %d, want 1", p.Boundary)
	}
	// Oversized boundary clamps to rounds.
	if p = planWith(ProfileLatency, heart1024(), 99, units1024); p.Boundary != 3 {
		t.Fatalf("boundary = %d, want 3", p.Boundary)
	}
	if _, err := PlanFor(ProfileLatency, nil, 1, 256); err == nil {
		t.Error("a plan without rounds accepted")
	}
	if _, err := PlanFor("turbo", heart1024(), 1, 256); err == nil {
		t.Error("an unknown profile planned")
	}
}

func TestPlanCodesRoundTrip(t *testing.T) {
	p := planWith(ProfileMixed, heart1024(), 2, units1024)
	back, err := AssignmentFromCodes(p.Codes())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back, p.Assignment) {
		t.Fatalf("codes round trip %v -> %v", p.Assignment, back)
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
		ok      bool
	}{
		{"legacy", ProfilePrivacyMax, []Kind{PaillierHE, PaillierHE, PaillierHE}, true},
		{"mixed ok", ProfileMixed, []Kind{PaillierHE, SSGC, Clear}, true},
		{"length", ProfileMixed, []Kind{PaillierHE}, false},
		{"round0 ssgc", ProfileMixed, []Kind{SSGC, SSGC, Clear}, false},
		{"round0 clear", ProfileLatency, []Kind{Clear, Clear, Clear}, false},
		{"privacy-max violated", ProfilePrivacyMax, []Kind{PaillierHE, SSGC, PaillierHE}, false},
		{"clear sandwich", ProfileLatency, []Kind{PaillierHE, Clear, SSGC}, false},
		{"unknown kind", ProfileLatency, []Kind{PaillierHE, "rot13", Clear}, false},
		{"ss-gc past its ring", ProfileLatency, []Kind{PaillierHE, PaillierHE, SSGC}, false},
		{"ss-gc at its ring", ProfileLatency, []Kind{PaillierHE, SSGC, PaillierHE}, true},
	}
	// The rounds need 40, 64 and 65 bits: the last is past ss-gc's ring. A
	// plan passes as the model provider checks it, which knows the widths:
	// the shared rules, then the ring.
	layers := []LayerInfo{{SlotBits: 40}, {SlotBits: 64}, {SlotBits: 65}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := ValidateAssignment(c.profile, c.plan, len(layers))
			if err == nil {
				err = CheckRing(c.plan, layers)
			}
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
