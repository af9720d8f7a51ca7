package ppstream

// Ablation benchmarks for the design choices DESIGN.md calls out:
// CRT-accelerated decryption, the key holder's CRT blinding factor, and
// merged vs per-layer stage encapsulation. Run with:
//
//	go test -bench=Ablation -benchmem

import (
	"crypto/rand"
	"sync"
	"testing"

	"ppstream/internal/backend"
	"ppstream/internal/paillier"
	"ppstream/internal/simulate"
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

// --- Key-holder encryption (CRT blinding factor vs public r^n) -----------

// BenchmarkAblationEncryptPublic encrypts as a party that knows only n
// would: one full-size r^n mod n² per ciphertext.
func BenchmarkAblationEncryptPublic(b *testing.B) {
	k := benchPaillierKey(b)
	for i := 0; i < b.N; i++ {
		if _, err := k.PublicKey.EncryptInt64(rand.Reader, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEncryptKeyHolder encrypts as the data provider does:
// the blinding factor from the CRT sampler, two half-size exponentiations.
func BenchmarkAblationEncryptKeyHolder(b *testing.B) {
	k := benchPaillierKey(b)
	for i := 0; i < b.N; i++ {
		if _, err := k.EncryptInt64(rand.Reader, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// transferCost is c_elem at the ablation's 512-bit key: one ciphertext
// through the wire codec's copy, from the unit-cost sweep.
func transferCost(b *testing.B) float64 {
	u, err := backend.MeasureUnitCosts(512)
	if err != nil {
		b.Fatal(err)
	}
	return u.Transfer
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
	per := transferCost(b)
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
	per := transferCost(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Pipeline(stages, 16, per); err != nil {
			b.Fatal(err)
		}
	}
}
