package protocol

import (
	"math/rand"
	"sync"
	"testing"

	"ppstream/internal/models"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/qnn"
	"ppstream/internal/tensor"
)

// deterministicCost strips the fields whose values depend on blinding-
// pool fill timing (a miss converts a pooled factor into an inline
// modexp) or on the random blinding factors themselves (ciphertext byte
// lengths shift by a byte when a residue has leading zeros), leaving the
// fields that are a pure function of the model and input shape. Used to
// compare per-request profiles for cross-request bleed: any bleed
// inflates these deterministic counts.
func deterministicCost(st obs.CostStats) obs.CostStats {
	st.ModExps = 0
	st.PoolHits = 0
	st.PoolMisses = 0
	st.CipherBytesIn = 0
	st.CipherBytesOut = 0
	return st
}

func costInput(seed int64) *tensor.Dense {
	r := rand.New(rand.NewSource(seed))
	x := tensor.Zeros(4)
	for i := range x.Data() {
		x.Data()[i] = r.NormFloat64()
	}
	return x
}

// TestInferTracedCarriesCostAnnotations checks the tentpole invariant
// end to end over the session layer: a traced inference's segments carry
// crypto-cost profiles from both parties, ciphertext traffic is counted
// on the wire segments, the server folds costs into its registry, and
// the flight recorder holds the request's record.
func TestInferTracedCarriesCostAnnotations(t *testing.T) {
	reg := obs.NewRegistry("cost-flow-test")
	flight := obs.NewFlightRecorder(8, 4, 8)
	client, _, ctx := traceSession(t, SessionConfig{Registry: reg, Flight: flight})
	defer client.Close()

	_, tree, err := client.InferTraced(ctx, costInput(99))
	if err != nil {
		t.Fatal(err)
	}
	if tree == nil {
		t.Fatal("no trace tree")
	}

	var kernelCost, encCost, nlCost, wireCost obs.CostStats
	for _, s := range tree.Segments {
		if s.Cost == nil {
			continue
		}
		switch s.Label() {
		case "server-kernel[paillier-he]":
			kernelCost.Add(*s.Cost)
		case "client-encrypt":
			encCost.Add(*s.Cost)
		case "client-nonlinear[paillier-he]":
			nlCost.Add(*s.Cost)
		case "wire":
			wireCost.Add(*s.Cost)
		}
	}
	if kernelCost.MulMods == 0 || kernelCost.Rerands == 0 {
		t.Errorf("server-kernel segments carry no kernel cost: %+v", kernelCost)
	}
	if kernelCost.CipherBytesIn == 0 || kernelCost.CipherBytesOut == 0 {
		t.Errorf("server-kernel segments carry no ciphertext traffic: %+v", kernelCost)
	}
	// The client holds the key: each encryption is a CRT blinding, two
	// half-size exponentiations, counted the way a CRT decryption is.
	if encCost.Encrypts == 0 || encCost.ModExps != 2*encCost.Encrypts {
		t.Errorf("client-encrypt segment: want 2 modexps per encryption, got %+v", encCost)
	}
	if nlCost.Decrypts == 0 || nlCost.Encrypts == 0 || nlCost.ModExps != 2*(nlCost.Decrypts+nlCost.Encrypts) {
		t.Errorf("client-nonlinear segments: want 2 modexps per decrypt and per re-encrypt, got %+v", nlCost)
	}
	if wireCost.CipherBytesIn == 0 || wireCost.CipherBytesOut == 0 {
		t.Errorf("wire segments carry no ciphertext byte counts: %+v", wireCost)
	}
	if total := tree.Cost(); total.ModExps == 0 {
		t.Errorf("request total records no modexps: %+v", total)
	}

	// The server folded this request's costs into its registry.
	snap := reg.Snapshot()
	for _, name := range []string{"cost.mulmods", "cost.rerands", "cost.cipher_bytes_in", "cost.cipher_bytes_out"} {
		if snap.Counters[name] == 0 {
			t.Errorf("registry counter %s is zero after a traced inference", name)
		}
	}

	// The flight recorder holds the request, keyed by its trace ID.
	dump := flight.Dump()
	if dump.Recorded == 0 || len(dump.Recent) == 0 {
		t.Fatalf("flight recorder empty after a completed request: %+v", dump)
	}
	found := false
	for _, rec := range dump.Recent {
		if rec.Trace.ID == tree.ID {
			found = true
			if rec.Err != "" {
				t.Errorf("successful request recorded with error %q", rec.Err)
			}
			if c := rec.Trace.Cost(); c.MulMods == 0 {
				t.Errorf("flight record carries no cost profile: %+v", c)
			}
		}
	}
	if !found {
		t.Errorf("trace %s not in flight recorder recent ring", tree.ID)
	}
}

// TestCostNoCrossRequestBleed runs concurrent inferences over one
// multiplexed session and requires every request's deterministic cost
// profile to equal a sequential baseline: requests sharing the session's
// evaluator and pool must not leak counts into each other. Run under
// -race in CI this also exercises the concurrent metering paths.
func TestCostNoCrossRequestBleed(t *testing.T) {
	reg := obs.NewRegistry("bleed-test")
	client, _, ctx := traceSession(t, SessionConfig{Registry: reg})
	defer client.Close()

	x := costInput(7)
	_, baseTree, err := client.InferTraced(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	base := deterministicCost(baseTree.Cost())
	if base.IsZero() {
		t.Fatal("baseline request recorded no deterministic cost")
	}
	baseDraws := func(tr *obs.TraceTree) uint64 {
		c := tr.Cost()
		return c.PoolHits + c.PoolMisses
	}
	wantDraws := baseDraws(baseTree)

	const concurrent = 6
	var wg sync.WaitGroup
	trees := make([]*obs.TraceTree, concurrent)
	errs := make([]error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, trees[i], errs[i] = client.InferTraced(ctx, x)
		}(i)
	}
	wg.Wait()
	for i := 0; i < concurrent; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		got := deterministicCost(trees[i].Cost())
		if got != base {
			t.Errorf("request %d cost %+v differs from baseline %+v — cross-request bleed", i, got, base)
		}
		if draws := baseDraws(trees[i]); draws != wantDraws {
			t.Errorf("request %d drew %d blinding factors, baseline drew %d", i, draws, wantDraws)
		}
		if c := trees[i].Cost(); c.CipherBytesIn == 0 || c.CipherBytesOut == 0 {
			t.Errorf("request %d recorded no ciphertext traffic: %+v", i, c)
		}
	}
}

// TestHeartRoundCosts pins the per-round crypto counts of one Heart
// inference at a 1024-bit key. The slot widths are the chained ones — the
// model declares |x| ≤ 64, so the rounds need 23, 25 and 27 bits (44, 40
// and 37 slots) where the int64 start gave 73 (14 slots) — so each round's
// outputs fit one reply: one re-randomization and one decryption per reply
// ciphertext — 3 for the 26 outputs, 4 before — and the pack's squarings and offset/blind multiplies on top of the kernel's
// own modular multiplications, which are a function of the weights alone:
// 551, 382 and 73 (power tables at windows 3, 3 and 1) with ONE modular
// inversion per round, where the per-column kernel ran 34.
func TestHeartRoundCosts(t *testing.T) {
	spec, _ := models.ByName("Heart")
	net, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	k := keyOfBits(t, 1024)
	proto, err := Build(net, k, Config{Factor: 100, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Zeros(13)
	for i := range x.Data() {
		x.Data()[i] = float64(i%5)*0.3 - 0.4
	}
	env, err := proto.Data.EncryptMetered(1, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	slotBits := []int{23, 25, 27}
	outs := []int{16, 8, 2}
	replies := []uint64{1, 1, 1}
	kernelMulMods := []uint64{551, 382, 73}
	for r := range outs {
		// The kernel alone, over the same input, for the baseline count.
		var kernelOnly obs.CostMeter
		st := proto.Model.stages[r]
		slots := k.Slots(slotBits[r])
		if st.slotBits != slotBits[r] {
			t.Fatalf("round %d: %d-bit slots, want %d", r, st.slotBits, slotBits[r])
		}
		var server, client obs.CostMeter
		inCT := env.CT
		env, _, err = proto.Model.ProcessLinearMetered(r, env, &server)
		if err != nil {
			t.Fatal(err)
		}
		if r == 0 {
			// Round 0's input is not permuted, so the bare kernel can be
			// replayed over it to separate its count from the pack's.
			if _, _, err := qnn.ApplyStage(paillier.NewEvaluator(&k.PublicKey, paillier.WithCostMeter(&kernelOnly)), st.ops, inCT, 1, 1); err != nil {
				t.Fatal(err)
			}
			if got, want := kernelOnly.Snapshot(), (obs.CostStats{MulMods: kernelMulMods[0], ModInverses: 1}); got != want {
				t.Errorf("round 0 bare kernel = %+v, want %+v", got, want)
			}
		}
		sc := server.Snapshot()
		packMulMods := uint64(0)
		for left := outs[r]; left > 0; left -= slots {
			packMulMods += uint64((min(left, slots)-1)*(slotBits[r]+1) + 2)
		}
		if sc.MulMods != kernelMulMods[r]+packMulMods || sc.ModInverses != 1 {
			t.Errorf("round %d server: %d mulmods and %d inversions, want kernel %d + pack %d and one inversion", r, sc.MulMods, sc.ModInverses, kernelMulMods[r], packMulMods)
		}
		if sc.Rerands != replies[r] || sc.PoolHits+sc.PoolMisses != replies[r] || sc.ModExps != replies[r] {
			t.Errorf("round %d server: %+v, want %d re-randomizations, each one inline exponentiation", r, sc, replies[r])
		}
		if uint64(env.CT.Size()) != replies[r] || env.Shape.Size() != outs[r] {
			t.Errorf("round %d reply: %d ciphertexts for %v", r, env.CT.Size(), env.Shape)
		}
		env, err = proto.Data.ProcessNonLinearMetered(r, env, &client)
		if err != nil {
			t.Fatal(err)
		}
		cc := client.Snapshot()
		reenc := uint64(0)
		if r < len(outs)-1 {
			reenc = uint64(outs[r])
		}
		if cc.Decrypts != replies[r] || cc.Encrypts != reenc || cc.ModExps != 2*(replies[r]+reenc) {
			t.Errorf("round %d client: %+v, want %d decrypts and %d re-encryptions at 2 modexps each", r, cc, replies[r], reenc)
		}
	}
	if env.Result == nil {
		t.Fatal("no result")
	}
}
