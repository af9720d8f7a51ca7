package protocol

import (
	"crypto/rand"
	mathrand "math/rand"
	"sync"
	"testing"

	"ppstream/internal/backend"
	"ppstream/internal/nn"
	"ppstream/internal/paillier"
	"ppstream/internal/tensor"
)

var (
	keyOnce sync.Once
	testKey *paillier.PrivateKey
)

func key(t testing.TB) *paillier.PrivateKey {
	keyOnce.Do(func() {
		k, err := paillier.GenerateKey(rand.Reader, 256)
		if err != nil {
			t.Fatalf("GenerateKey: %v", err)
		}
		testKey = k
	})
	return testKey
}

// buildNet makes a small FC network: two rounds (L,N,L,N).
func buildNet(t *testing.T) *nn.Network {
	t.Helper()
	r := mathrand.New(mathrand.NewSource(9))
	net, err := nn.NewNetwork("proto-test", tensor.Shape{4},
		nn.NewFC("fc1", 4, 6, r),
		nn.NewReLU("relu1"),
		nn.NewFC("fc2", 6, 3, r),
		nn.NewSoftMax("softmax"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// buildConvNet makes a conv network: conv+relu+fc+softmax.
func buildConvNet(t *testing.T) *nn.Network {
	t.Helper()
	r := mathrand.New(mathrand.NewSource(10))
	p := tensor.ConvParams{InC: 1, InH: 6, InW: 6, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv, err := nn.NewConv("conv1", p, r)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewNetwork("proto-conv", tensor.Shape{1, 6, 6},
		conv,
		nn.NewReLU("relu1"),
		nn.NewFlatten("flatten"),
		nn.NewFC("fc", 2*6*6, 3, r),
		nn.NewSoftMax("softmax"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestBuildValidation(t *testing.T) {
	k := key(t)
	net := buildNet(t)
	if _, err := Build(net, k, Config{Factor: 0}); err == nil {
		t.Error("zero factor accepted")
	}
	// Network ending in a linear layer violates the protocol shape.
	r := mathrand.New(mathrand.NewSource(1))
	bad, _ := nn.NewNetwork("bad", tensor.Shape{4}, nn.NewFC("fc", 4, 2, r))
	if _, err := Build(bad, k, Config{Factor: 100}); err == nil {
		t.Error("linear-ending network accepted")
	}
	// SoftMax in the middle must be rejected (position-dependent on a
	// permuted tensor).
	mid, _ := nn.NewNetwork("mid", tensor.Shape{4},
		nn.NewFC("fc1", 4, 4, r),
		nn.NewSoftMax("sm-middle"),
		nn.NewFC("fc2", 4, 2, r),
		nn.NewSoftMax("sm"),
	)
	if _, err := Build(mid, k, Config{Factor: 100}); err == nil {
		t.Error("middle SoftMax accepted")
	}
	// MaxPool in the middle likewise.
	p := tensor.ConvParams{InC: 1, InH: 4, InW: 4, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv, _ := nn.NewConv("c", p, r)
	mp, _ := nn.NewNetwork("mp", tensor.Shape{1, 4, 4},
		conv,
		nn.NewMaxPool("pool", 2, 2),
		nn.NewFlatten("fl"),
		nn.NewFC("fc", 4, 2, r),
		nn.NewSoftMax("sm"),
	)
	if _, err := Build(mp, k, Config{Factor: 100}); err == nil {
		t.Error("middle MaxPool accepted without rewrite")
	}
	// After ReplaceMaxPool it must build.
	rewritten, err := nn.ReplaceMaxPool(mp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(rewritten, k, Config{Factor: 100}); err != nil {
		t.Errorf("rewritten network rejected: %v", err)
	}
}

// TestCorrectnessGuarantee is the paper's correctness property
// (Section II-C): the privacy-preserving protocol produces the same
// result as plain inference, up to parameter-scaling quantization.
func TestCorrectnessGuarantee(t *testing.T) {
	k := key(t)
	net := buildNet(t)
	proto, err := Build(net, k, Config{Factor: 10000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if proto.Rounds() != 2 {
		t.Fatalf("rounds %d, want 2", proto.Rounds())
	}
	r := mathrand.New(mathrand.NewSource(20))
	for trial := 0; trial < 5; trial++ {
		x := tensor.Zeros(4)
		for i := range x.Data() {
			x.Data()[i] = r.NormFloat64()
		}
		want, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := proto.Infer(uint64(trial), x)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(want, got, 1e-3) {
			t.Errorf("trial %d: protocol %v, plain %v", trial, got.Data(), want.Data())
		}
		// Class prediction must match exactly.
		if tensor.ArgMax(want) != tensor.ArgMax(got) {
			t.Errorf("trial %d: prediction differs", trial)
		}
	}
}

func TestCorrectnessConvNet(t *testing.T) {
	k := key(t)
	net := buildConvNet(t)
	proto, err := Build(net, k, Config{Factor: 1000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Zeros(1, 6, 6)
	r := mathrand.New(mathrand.NewSource(21))
	for i := range x.Data() {
		x.Data()[i] = r.Float64()
	}
	want, _ := net.Forward(x)
	got, err := proto.Infer(1, x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(want, got, 5e-3) {
		t.Errorf("conv protocol diverges:\n got %v\nwant %v", got.Data(), want.Data())
	}
}

// TestPartitionedExecutionMatches runs the protocol with tensor
// partitioning enabled on the conv stage and checks identical results.
func TestPartitionedExecutionMatches(t *testing.T) {
	k := key(t)
	net := buildConvNet(t)
	proto, err := Build(net, k, Config{Factor: 1000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := proto.Infer(1, onesInput())
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.Model.SetStagePlan(0, 3, true, true); err != nil {
		t.Fatal(err)
	}
	partitioned, err := proto.Infer(2, onesInput())
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(baseline, partitioned, 1e-9) {
		t.Error("partitioned execution changed the result")
	}
}

func onesInput() *tensor.Dense {
	x := tensor.Zeros(1, 6, 6)
	for i := range x.Data() {
		x.Data()[i] = float64(i%4) / 4
	}
	return x
}

// TestObfuscationActuallyPermutes inspects the envelope the model
// provider emits mid-protocol: it must be a rank-1 permuted tensor, and
// the permutation must differ between requests.
func TestObfuscationActuallyPermutes(t *testing.T) {
	k := key(t)
	net := buildNet(t)
	proto, err := Build(net, k, Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float64{0.5, -0.25, 1, 0.75}, 4)
	env, err := proto.Data.EncryptMetered(7, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	mid, _, err := proto.Model.ProcessLinearMetered(0, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !mid.Obfuscated {
		t.Error("intermediate envelope not marked obfuscated")
	}
	if mid.CT.Shape().Rank() != 1 {
		t.Errorf("obfuscated tensor rank %d, want 1 (Section III-C reshape)", mid.CT.Shape().Rank())
	}
	// The data provider decrypts the permuted values; inverting at the
	// model provider must restore the linear-stage output order: finish
	// the round and confirm end-to-end correctness.
	next, err := proto.Data.ProcessNonLinearMetered(0, mid, nil)
	if err != nil {
		t.Fatal(err)
	}
	fin, _, err := proto.Model.ProcessLinearMetered(1, next, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Obfuscated {
		t.Error("last round must not be obfuscated (step 3.4)")
	}
	res, err := proto.Data.ProcessNonLinearMetered(1, fin, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := net.Forward(x)
	if !tensor.AllClose(want, res.Result, 1e-2) {
		t.Errorf("manual round walk diverges: %v vs %v", res.Result.Data(), want.Data())
	}
}

func TestProtocolStateValidation(t *testing.T) {
	k := key(t)
	net := buildNet(t)
	proto, err := Build(net, k, Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 4)
	env, _ := proto.Data.EncryptMetered(1, x, nil)
	// Round 1 without round 0's obfuscation state must fail.
	if _, _, err := proto.Model.ProcessLinearMetered(1, env, nil); err == nil {
		t.Error("round 1 accepted non-obfuscated input")
	}
	// Out-of-range rounds.
	if _, _, err := proto.Model.ProcessLinearMetered(9, env, nil); err == nil {
		t.Error("unknown linear round accepted")
	}
	if _, err := proto.Data.ProcessNonLinearMetered(9, env, nil); err == nil {
		t.Error("unknown non-linear round accepted")
	}
	// Obfuscated input to round 0.
	envObf := &Envelope{Req: 2, CT: env.CT, Exp: 1, Obfuscated: true}
	if _, _, err := proto.Model.ProcessLinearMetered(0, envObf, nil); err == nil {
		t.Error("round 0 accepted obfuscated input")
	}
	// Missing ciphertext.
	if _, _, err := proto.Model.ProcessLinearMetered(0, &Envelope{Req: 3, Exp: 1}, nil); err == nil {
		t.Error("empty envelope accepted")
	}
	// A walk that fails mid-protocol (the roles disagree on round 1's
	// backend, after round 0 drew a permutation) leaves no state behind.
	if err := proto.Data.SetBackendPlan([]backend.Kind{backend.PaillierHE, backend.SSGC}); err != nil {
		t.Fatal(err)
	}
	if _, err := proto.Infer(4, x); err == nil {
		t.Error("Infer succeeded across mismatched plans")
	}
	if _, leaked := proto.Model.state[4]; leaked {
		t.Error("failed Infer left its permutation chain in the model provider")
	}
}

func TestWireRoundTrip(t *testing.T) {
	k := key(t)
	net := buildNet(t)
	proto, err := Build(net, k, Config{Factor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float64{0.1, 0.2, 0.3, 0.4}, 4)
	env, err := proto.Data.EncryptMetered(5, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ToWire(env)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromWire(w, &k.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if back.Req != 5 || back.Exp != env.Exp || !back.CT.Shape().Equal(env.CT.Shape()) {
		t.Error("wire metadata lost")
	}
	// Decrypts to the same scaled values.
	a, _ := paillier.DecryptTensor(k, env.CT, 1)
	b, _ := paillier.DecryptTensor(k, back.CT, 1)
	for i := range a.Data() {
		if a.AtFlat(i) != b.AtFlat(i) {
			t.Fatal("wire round trip corrupted ciphertexts")
		}
	}
	// Result-carrying envelope.
	resEnv := &Envelope{Req: 6, Result: tensor.MustFromSlice([]float64{0.9, 0.1}, 2)}
	rw, err := ToWire(resEnv)
	if err != nil {
		t.Fatal(err)
	}
	resBack, err := FromWire(rw, &k.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if resBack.Result == nil || resBack.Result.At(0) != 0.9 {
		t.Error("result envelope corrupted")
	}
}

func TestFromWireRejectsMalformed(t *testing.T) {
	k := key(t)
	if _, err := FromWire(nil, &k.PublicKey); err == nil {
		t.Error("nil frame accepted")
	}
	// shape/cipher mismatch
	w := &WireEnvelope{Shape: []int{4}, Cipher: []*paillier.Ciphertext{paillier.ParseCiphertext([]byte{1})}}
	if _, err := FromWire(w, &k.PublicKey); err == nil {
		t.Error("cipher-count mismatch accepted")
	}
	// out-of-range ciphertext
	huge := append([]byte{0xFF}, k.N2.Bytes()...)
	w2 := &WireEnvelope{Shape: []int{1}, Cipher: []*paillier.Ciphertext{paillier.ParseCiphertext(huge)}}
	if _, err := FromWire(w2, &k.PublicKey); err == nil {
		t.Error("oversized ciphertext accepted")
	}
	// invalid shape
	w3 := &WireEnvelope{Shape: []int{0}, Cipher: nil}
	if _, err := FromWire(w3, &k.PublicKey); err == nil {
		t.Error("invalid shape accepted")
	}
	if _, err := ToWire(&Envelope{Req: 1}); err == nil {
		t.Error("empty envelope serialized")
	}
}

func TestBuildAutoSelectsFactor(t *testing.T) {
	k := key(t)
	net := buildNet(t)
	r := mathrand.New(mathrand.NewSource(33))
	var xs []*tensor.Dense
	var ys []int
	for i := 0; i < 12; i++ {
		x := tensor.Zeros(4)
		for j := range x.Data() {
			x.Data()[j] = r.NormFloat64()
		}
		pred, err := net.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		xs, ys = append(xs, x), append(ys, pred)
	}
	proto, res, err := BuildAuto(net, k, xs, ys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Factor < 1 {
		t.Errorf("selected factor %d", res.Factor)
	}
	// Labels were the network's own predictions, so the scaled accuracy
	// at the selected factor should be ≈ 1.
	if res.ScaledAccuracy < 0.9 {
		t.Errorf("scaled accuracy %v", res.ScaledAccuracy)
	}
	out, err := proto.Infer(1, xs[0])
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Error("no result")
	}
}
