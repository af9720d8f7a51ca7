package backend

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"

	"ppstream/internal/nn"
	"ppstream/internal/obfuscate"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/qnn"
	"ppstream/internal/secshare"
	"ppstream/internal/tensor"
)

func TestKindCodesRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := KindFromCode(k.Code())
		if err != nil || got != k {
			t.Errorf("code round trip %q -> %d -> %q (%v)", k, k.Code(), got, err)
		}
		p, err := ParseKind(string(k))
		if err != nil || p != k {
			t.Errorf("parse round trip %q (%v)", k, err)
		}
		if k.MetricName() == "" {
			t.Errorf("%q has no metric name", k)
		}
	}
	if PaillierHE.Code() != 0 {
		t.Error("paillier-he must encode as 0 so absent wire fields mean the legacy protocol")
	}
	if _, err := KindFromCode(99); err == nil {
		t.Error("unknown code accepted")
	}
	if _, err := ParseKind("rot13"); err == nil {
		t.Error("unknown kind accepted")
	}
}

// buildStage quantizes a small randomized FC stage.
func buildStage(t *testing.T, rng *mrand.Rand, in, out int, F int64) *Stage {
	t.Helper()
	fc := nn.NewFC("fc", in, out, rng)
	op, err := qnn.Quantize(fc, F)
	if err != nil {
		t.Fatal(err)
	}
	return &Stage{Ops: []qnn.Op{op}, InShape: tensor.Shape{in}, OutShape: tensor.Shape{out}, Threads: 1}
}

func bigInput(rng *mrand.Rand, F int64, n int) *tensor.Tensor[*big.Int] {
	x := tensor.Zeros(n)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	return tensor.Map(qnn.ScaleInput(x, F), func(v int64) *big.Int { return big.NewInt(v) })
}

// TestBackendsBitIdentical executes the same randomized stage on all
// three backends and demands bit-identical integer outputs — the
// differential guarantee the acceptance criteria pin.
func TestBackendsBitIdentical(t *testing.T) {
	const F = 100
	rng := mrand.New(mrand.NewSource(5))
	st := buildStage(t, rng, 8, 5, F)
	xb := bigInput(rng, F, 8)

	// Reference: the clear backend is literally ApplyStagePlain.
	var meter obs.CostMeter
	clearEnv := &ExecEnv{Meter: &meter}
	be, _ := For(Clear)
	ref, err := be.Execute(clearEnv, st, &Payload{Kind: Clear, Plain: xb, Exp: 1})
	if err != nil {
		t.Fatal(err)
	}
	if meter.Snapshot().PlainOps == 0 {
		t.Error("clear backend metered no plain ops")
	}

	// ss-gc: share, execute, reconstruct.
	eng := secshare.NewEngine(9)
	xs := tensor.New[secshare.Shares](8)
	for i, v := range xb.Data() {
		s, err := secshare.SplitRandom(rand.Reader, secshare.RingOfBig(v))
		if err != nil {
			t.Fatal(err)
		}
		xs.SetFlat(i, s)
	}
	var ssMeter obs.CostMeter
	be, _ = For(SSGC)
	got, err := be.Execute(&ExecEnv{SS: eng, Meter: &ssMeter}, st, &Payload{Kind: SSGC, Sh: xs, Exp: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Exp != ref.Exp {
		t.Fatalf("ss-gc exp %d, want %d", got.Exp, ref.Exp)
	}
	for i, s := range got.Sh.Data() {
		v := secshare.SignedOfRing(s.Reconstruct())
		if ref.Plain.Data()[i].Cmp(big.NewInt(v)) != 0 {
			t.Fatalf("ss-gc elem %d: %d != %s", i, v, ref.Plain.Data()[i])
		}
	}
	if ssMeter.Snapshot().Triples == 0 {
		t.Error("ss-gc backend metered no triples")
	}

	// paillier-he: encrypt, execute, decrypt.
	kp, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	xi := tensor.Map(xb, func(v *big.Int) int64 { return v.Int64() })
	ct, err := paillier.EncryptTensor(&kp.PublicKey, kp.Blinder(rand.Reader), xi, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := paillier.NewEvaluator(&kp.PublicKey)
	be, _ = For(PaillierHE)
	enc, err := be.Execute(&ExecEnv{Eval: ev, Workers: 1}, st, &Payload{Kind: PaillierHE, CT: ct, Exp: 1})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := paillier.DecryptTensorBig(kp, enc.CT, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dec.Data() {
		if ref.Plain.Data()[i].Cmp(v) != 0 {
			t.Fatalf("paillier elem %d: %s != %s", i, v, ref.Plain.Data()[i])
		}
	}
}

func TestExecuteRejectsWrongPayload(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	st := buildStage(t, rng, 3, 2, 100)
	for _, k := range Kinds() {
		be, err := For(k)
		if err != nil {
			t.Fatal(err)
		}
		wrong := &Payload{Kind: "bogus"}
		if _, err := be.Execute(&ExecEnv{}, st, wrong); err == nil {
			t.Errorf("%s accepted foreign payload", k)
		}
	}
	// Missing resources must error, not panic.
	be, _ := For(PaillierHE)
	if _, err := be.Execute(&ExecEnv{}, st, &Payload{Kind: PaillierHE, CT: tensor.New[*paillier.Ciphertext](3)}); err == nil {
		t.Error("paillier-he without evaluator accepted")
	}
	be, _ = For(SSGC)
	if _, err := be.Execute(&ExecEnv{}, st, &Payload{Kind: SSGC, Sh: tensor.New[secshare.Shares](3)}); err == nil {
		t.Error("ss-gc without engine accepted")
	}
}

// TestGCReLUSharesExact checks the garbled ReLU produces exact fresh
// shares of max(x, 0) over ring integers, and meters its work.
func TestGCReLUSharesExact(t *testing.T) {
	vals := []int64{0, 1, -1, 12345, -98765, 1 << 40, -(1 << 40)}
	xs := make([]secshare.Shares, len(vals))
	for i, v := range vals {
		s, err := secshare.SplitRandom(rand.Reader, secshare.RingOfBig(big.NewInt(v)))
		if err != nil {
			t.Fatal(err)
		}
		xs[i] = s
	}
	var meter obs.CostMeter
	out, err := GCReLUShares(xs, &meter)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		want := v
		if want < 0 {
			want = 0
		}
		if got := secshare.SignedOfRing(out[i].Reconstruct()); got != want {
			t.Fatalf("relu(%d) = %d, want %d", v, got, want)
		}
		// Fresh shares: the output sharing must differ from the input's.
		if out[i] == xs[i] {
			t.Fatalf("element %d output shares identical to input shares", i)
		}
	}
	st := meter.Snapshot()
	if st.GCGates == 0 || st.ExtOTs != uint64(64*len(vals)) {
		t.Fatalf("gc cost = %+v, want gates > 0 and %d ext OTs", st, 64*len(vals))
	}
	if empty, err := GCReLUShares(nil, nil); err != nil || empty != nil {
		t.Fatalf("empty input: %v, %v", empty, err)
	}
}

func TestPayloadPermuteRoundTrip(t *testing.T) {
	perm, err := obfuscate.NewRandom(6)
	if err != nil {
		t.Fatal(err)
	}
	shape := tensor.Shape{2, 3}
	plain := tensor.New[*big.Int](2, 3)
	for i := range plain.Data() {
		plain.SetFlat(i, big.NewInt(int64(i*i)))
	}
	p := &Payload{Kind: Clear, Plain: plain, Exp: 2}
	obf, err := p.ApplyPerm(perm)
	if err != nil {
		t.Fatal(err)
	}
	back, err := obf.InvertPerm(perm, shape)
	if err != nil {
		t.Fatal(err)
	}
	if back.Exp != 2 {
		t.Fatalf("exp lost: %d", back.Exp)
	}
	for i := range plain.Data() {
		if back.Plain.Data()[i].Cmp(plain.Data()[i]) != 0 {
			t.Fatalf("permute round trip broke element %d", i)
		}
	}
	sh := tensor.New[secshare.Shares](4)
	for i := range sh.Data() {
		sh.SetFlat(i, secshare.Shares{S: [2]uint64{uint64(i), uint64(100 + i)}})
	}
	perm4, _ := obfuscate.NewRandom(4)
	sp := &Payload{Kind: SSGC, Sh: sh, Exp: 1}
	obfS, err := sp.ApplyPerm(perm4)
	if err != nil {
		t.Fatal(err)
	}
	backS, err := obfS.InvertPerm(perm4, tensor.Shape{4})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range backS.Sh.Data() {
		if s != sh.Data()[i] {
			t.Fatalf("share permute round trip broke element %d", i)
		}
	}
	bad := &Payload{Kind: "bogus"}
	if _, err := bad.ApplyPerm(perm); err == nil {
		t.Error("unknown kind permuted")
	}
}

func TestPayloadShape(t *testing.T) {
	p := &Payload{Kind: Clear, Plain: tensor.New[*big.Int](2, 2)}
	s, err := p.Shape()
	if err != nil || s.Size() != 4 {
		t.Fatalf("shape %v (%v)", s, err)
	}
	if _, err := (&Payload{Kind: Clear}).Shape(); err == nil {
		t.Error("empty payload shape accepted")
	}
	if _, err := (&Payload{Kind: "x"}).Shape(); err == nil {
		t.Error("unknown kind shape accepted")
	}
}
