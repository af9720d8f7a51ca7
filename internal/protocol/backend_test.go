package protocol

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	mathrand "math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"ppstream/internal/backend"
	"ppstream/internal/nn"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/secshare"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// buildNet3 makes a three-round FC network (L,N,L,N,L,N): round 0 is
// forced Paillier, round 1 is followed by a ReLU (the garbled-circuit
// case), and round 2 can sit past a certified clear boundary.
func buildNet3(t testing.TB) *nn.Network {
	t.Helper()
	r := mathrand.New(mathrand.NewSource(41))
	net, err := nn.NewNetwork("proto-test-3r", tensor.Shape{4},
		nn.NewFC("fc1", 4, 6, r),
		nn.NewReLU("relu1"),
		nn.NewFC("fc2", 6, 5, r),
		nn.NewReLU("relu2"),
		nn.NewFC("fc3", 5, 3, r),
		nn.NewSoftMax("softmax"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestWireRoundTripSharedEnvelope round-trips an ss-gc envelope: the
// share words must survive the wire exactly and the decoded payload
// must carry the ss-gc backend tag.
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
	env := &Envelope{Req: 7, Backend: backend.SSGC, Sh: sh, Exp: 2, Obfuscated: true}
	w, err := ToWire(env)
	if err != nil {
		t.Fatal(err)
	}
	if w.Backend != backend.SSGC.Code() {
		t.Fatalf("wire backend code %d, want %d", w.Backend, backend.SSGC.Code())
	}
	if len(w.Cipher) != 0 || len(w.Plain) != 0 {
		t.Fatal("ss-gc wire envelope carries foreign payloads")
	}
	got, err := FromWire(w, &k.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if got.BackendKind() != backend.SSGC || got.Exp != 2 || !got.Obfuscated {
		t.Fatalf("decoded envelope lost metadata: %+v", got)
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
// plaintext elements.
func TestWireRoundTripClearEnvelope(t *testing.T) {
	k := key(t)
	vals := []int64{0, 1, -1, 123456789, -987654321}
	pl := tensor.New[*big.Int](len(vals))
	for i, v := range vals {
		pl.Data()[i] = big.NewInt(v)
	}
	env := &Envelope{Req: 9, Backend: backend.Clear, Plain: pl, Exp: 1, Obfuscated: true}
	w, err := ToWire(env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromWire(w, &k.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if got.BackendKind() != backend.Clear {
		t.Fatalf("decoded backend %q, want clear", got.BackendKind())
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
		"count mismatch": func(w *WireEnvelope) { w.Plain = w.Plain[:2] },
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
		if err := proto.ApplyPlan(plan); err != nil {
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
		if err := proto.ApplyPlan(plan); err == nil {
			t.Errorf("ApplyPlan accepted unsafe assignment %v", plan)
		}
	}
}

var (
	e2eKeyOnce sync.Once
	e2eKey     *paillier.PrivateKey
	e2eKeyErr  error
)

// e2eKey2048 returns a shared 2048-bit key: large enough that the ILP's
// Paillier cost estimate genuinely loses to ss-gc on ReLU-followed
// rounds even when the round's outputs pack into one reply ciphertext,
// so the mixed plan picks all three backends on its own.
func e2eKey2048(t *testing.T) *paillier.PrivateKey {
	t.Helper()
	e2eKeyOnce.Do(func() {
		e2eKey, e2eKeyErr = paillier.GenerateKey(rand.Reader, 2048)
	})
	if e2eKeyErr != nil {
		t.Fatal(e2eKeyErr)
	}
	return e2eKey
}

// TestMixedProfileEndToEndAllBackends is the tentpole acceptance test:
// a mixed-profile session over live TCP runs at least one round on each
// backend within a single request, the merged TraceTree labels every
// kernel segment with its backend, the server's registry carries
// nonzero per-backend cost counters, and the result still matches the
// plaintext forward pass.
func TestMixedProfileEndToEndAllBackends(t *testing.T) {
	RegisterServiceWire()
	netw := buildNet3(t)
	k := e2eKey2048(t)
	reg := obs.NewRegistry("mixed-e2e")

	serverEdge, addr, err := stream.ListenEdge("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ServeSessionConfig(ctx, serverEdge, serverEdge, netw, SessionConfig{
			Factor:        1000,
			MaxWorkers:    2,
			Window:        2,
			Registry:      reg,
			Profile:       backend.ProfileLatency, // permissive policy: the client's ask decides
			ClearBoundary: 2,
		})
	}()
	clientEdge, err := stream.DialEdge(addr)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClientOpts(ctx, clientEdge, clientEdge, netw, k, 1000,
		ClientOptions{Workers: 1, Window: 2, Profile: backend.ProfileMixed})
	if err != nil {
		t.Fatal(err)
	}

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
	if err := <-serveErr; err != nil {
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
// side wins.
func TestPrivacyMaxClientNeverWeakens(t *testing.T) {
	RegisterServiceWire()
	netw := buildNet3(t)
	k := e2eKey2048(t)

	serverEdge, addr, err := stream.ListenEdge("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ServeSessionConfig(ctx, serverEdge, serverEdge, netw, SessionConfig{
			Factor:        1000,
			MaxWorkers:    2,
			Window:        2,
			Profile:       backend.ProfileLatency,
			ClearBoundary: 2,
		})
	}()
	clientEdge, err := stream.DialEdge(addr)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClientOpts(ctx, clientEdge, clientEdge, netw, k, 1000,
		ClientOptions{Workers: 1, Window: 2, Profile: backend.ProfilePrivacyMax})
	if err != nil {
		t.Fatal(err)
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
	if err := <-serveErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}
