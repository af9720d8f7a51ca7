package ppstream

// Ablation benchmarks for the design choices DESIGN.md calls out:
// CRT-accelerated decryption, the precomputed blinding pool, merged vs
// per-layer stage encapsulation, and the partitioning executor's
// overhead. Run with:
//
//	go test -bench=Ablation -benchmem

import (
	"crypto/rand"
	mathrand "math/rand"
	"sync"
	"testing"

	"ppstream/internal/garble"
	"ppstream/internal/nn"
	"ppstream/internal/paillier"
	"ppstream/internal/partition"
	"ppstream/internal/qnn"
	"ppstream/internal/simulate"
	"ppstream/internal/tensor"
)

var (
	benchKeyOnce sync.Once
	benchKey     *paillier.PrivateKey
)

func benchPaillierKey(b *testing.B) *paillier.PrivateKey {
	benchKeyOnce.Do(func() {
		k, err := paillier.GenerateKey(rand.Reader, 512)
		if err != nil {
			b.Fatal(err)
		}
		benchKey = k
	})
	return benchKey
}

// --- CRT decryption (Section V: GMP-style modular arithmetic) -------------

func BenchmarkAblationDecryptCRT(b *testing.B) {
	k := benchPaillierKey(b)
	ct, err := k.PublicKey.EncryptInt64(rand.Reader, 987654321)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDecryptNoCRT(b *testing.B) {
	k := benchPaillierKey(b)
	ct, err := k.PublicKey.EncryptInt64(rand.Reader, 987654321)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.DecryptNoCRT(ct); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Blinding pool (off-critical-path r^n precomputation) -----------------

func BenchmarkAblationEncryptFresh(b *testing.B) {
	k := benchPaillierKey(b)
	for i := 0; i < b.N; i++ {
		if _, err := k.PublicKey.EncryptInt64(rand.Reader, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEncryptPooled(b *testing.B) {
	k := benchPaillierKey(b)
	pool := paillier.NewPool(&k.PublicKey, rand.Reader, 256, 2)
	defer pool.Close()
	// Let the pool pre-fill so the benchmark measures the intended
	// steady state (blinding factors produced off the critical path).
	warm := make([]*paillier.Ciphertext, 0, 64)
	for i := 0; i < 64; i++ {
		ct, err := pool.EncryptInt64(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		warm = append(warm, ct)
	}
	_ = warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.EncryptInt64(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Stage encapsulation (Section IV-B): merged vs per-layer stages -------
//
// The paper rejects one-stage-per-primitive-layer because of the
// serialization overhead between stages. The simulation compares the
// same profiled costs encapsulated both ways: merged stages vs one stage
// per primitive layer with a per-hop serialization charge.

func BenchmarkAblationMergedStages(b *testing.B) {
	stages := []simulate.Stage{
		{Name: "lin0", Base: 0.10, Threads: 4, CommElems: 800},
		{Name: "non0", Base: 0.02, Threads: 4},
		{Name: "lin1", Base: 0.06, Threads: 4, CommElems: 400},
		{Name: "non1", Base: 0.01, Threads: 4},
	}
	per := simulate.PerElementTransferCost(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Pipeline(stages, 16, per); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPerLayerStages(b *testing.B) {
	// The same work split into twice the stages, each hop re-serializing
	// the full tensor (the overhead Section IV-B's merge avoids).
	stages := []simulate.Stage{
		{Name: "conv", Base: 0.06, Threads: 4, CommElems: 800},
		{Name: "bn", Base: 0.04, Threads: 4, CommElems: 800},
		{Name: "non0", Base: 0.02, Threads: 4, CommElems: 800},
		{Name: "fc", Base: 0.04, Threads: 4, CommElems: 400},
		{Name: "fc2", Base: 0.02, Threads: 4, CommElems: 400},
		{Name: "non1", Base: 0.01, Threads: 4, CommElems: 400},
	}
	per := simulate.PerElementTransferCost(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Pipeline(stages, 16, per); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Partitioning executor overhead ----------------------------------------
//
// The shared-memory fast path (qnn.ApplyStage) vs the partitioning
// executor that materializes per-thread input views (partition.Execute):
// the cost of physically modelling the communication.

func ablationConvOp(b *testing.B) (qnn.ElementOp, *paillier.CipherTensor, *paillier.PrivateKey) {
	b.Helper()
	k := benchPaillierKey(b)
	r := mathrand.New(mathrand.NewSource(9))
	p := tensor.ConvParams{InC: 1, InH: 8, InW: 8, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv, err := nn.NewConv("c", p, r)
	if err != nil {
		b.Fatal(err)
	}
	op, err := qnn.Quantize(conv, 100)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Zeros(1, 8, 8)
	for i := range x.Data() {
		x.Data()[i] = r.Float64() - 0.5
	}
	ct, err := paillier.EncryptTensor(&k.PublicKey, k.Blinder(rand.Reader), qnn.ScaleInput(x, 100), 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	return op.(qnn.ElementOp), ct, k
}

func BenchmarkAblationSharedMemoryConv(b *testing.B) {
	op, ct, k := ablationConvOp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := op.Apply(paillier.NewEvaluator(&k.PublicKey), ct, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPartitionedConv(b *testing.B) {
	op, ct, k := ablationConvOp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := partition.Execute(paillier.NewEvaluator(&k.PublicKey), op, ct, 1, 2, true); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Garbling scheme: point-and-permute vs half-gates -----------------------
//
// Half-gates halves the garbled tables (2 vs 4 rows per AND), the
// dominant wire volume of the EzPC-style baseline's non-linear layers.

func BenchmarkAblationGarblePointPermute(b *testing.B) {
	c, err := garble.ReLUShares()
	if err != nil {
		b.Fatal(err)
	}
	r := mathrand.New(mathrand.NewSource(41))
	x0, x1, mask := r.Uint64(), r.Uint64(), r.Uint64()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := garble.Garble(c)
		if err != nil {
			b.Fatal(err)
		}
		gl, err := g.GarblerLabels(append(garble.Bits64(x0), garble.Bits64(-mask)...))
		if err != nil {
			b.Fatal(err)
		}
		el := make([]garble.Label, 64)
		for j := 0; j < 64; j++ {
			z, o, err := g.EvalLabelPair(j)
			if err != nil {
				b.Fatal(err)
			}
			if garble.Bits64(x1)[j] {
				el[j] = o
			} else {
				el[j] = z
			}
		}
		if _, err := garble.Evaluate(c, g.Public(), gl, el); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGarbleHalfGates(b *testing.B) {
	c, err := garble.ReLUShares()
	if err != nil {
		b.Fatal(err)
	}
	r := mathrand.New(mathrand.NewSource(41))
	x0, x1, mask := r.Uint64(), r.Uint64(), r.Uint64()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := garble.GarbleHG(c)
		if err != nil {
			b.Fatal(err)
		}
		gl, err := g.GarblerLabels(append(garble.Bits64(x0), garble.Bits64(-mask)...))
		if err != nil {
			b.Fatal(err)
		}
		el := make([]garble.Label, 64)
		for j := 0; j < 64; j++ {
			z, o, err := g.EvalLabelPair(j)
			if err != nil {
				b.Fatal(err)
			}
			if garble.Bits64(x1)[j] {
				el[j] = o
			} else {
				el[j] = z
			}
		}
		if _, err := garble.EvaluateHG(c, g.Public(), gl, el); err != nil {
			b.Fatal(err)
		}
	}
}
