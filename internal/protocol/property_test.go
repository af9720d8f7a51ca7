package protocol

import (
	mathrand "math/rand"
	"testing"
	"testing/quick"

	"ppstream/internal/nn"
	"ppstream/internal/paillier"
	"ppstream/internal/tensor"
)

// TestCorrectnessPropertyRandomArchitectures is the paper's correctness
// guarantee as a property: for random FC architectures (random depth and
// widths, ReLU/Sigmoid activations) and random inputs, the
// privacy-preserving protocol matches plain inference.
func TestCorrectnessPropertyRandomArchitectures(t *testing.T) {
	k := key(t)
	f := func(seed int64) bool {
		r := mathrand.New(mathrand.NewSource(seed))
		depth := 1 + r.Intn(3) // 1..3 hidden blocks
		in := 2 + r.Intn(5)
		var layers []nn.Layer
		width := in
		for d := 0; d < depth; d++ {
			next := 2 + r.Intn(6)
			layers = append(layers, nn.NewFC(name("fc", d), width, next, r))
			if r.Intn(2) == 0 {
				layers = append(layers, nn.NewReLU(name("relu", d)))
			} else {
				layers = append(layers, nn.NewSigmoid(name("sig", d)))
			}
			width = next
		}
		classes := 2 + r.Intn(3)
		layers = append(layers, nn.NewFC("head", width, classes, r), nn.NewSoftMax("sm"))
		net, err := nn.NewNetwork("prop", tensor.Shape{in}, layers...)
		if err != nil {
			return false
		}
		proto, err := Build(net, k, Config{Factor: 10000})
		if err != nil {
			return false
		}
		x := tensor.Zeros(in)
		for i := range x.Data() {
			x.Data()[i] = r.NormFloat64()
		}
		want, err := net.Forward(x)
		if err != nil {
			return false
		}
		got, err := proto.Infer(uint64(seed), x)
		if err != nil {
			return false
		}
		return tensor.AllClose(want, got, 5e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func name(prefix string, i int) string {
	return prefix + string(rune('0'+i%10))
}

// FuzzFromWire feeds adversarial wire envelopes into the model
// provider's frame validation: no input may panic, and malformed frames
// must be rejected.
func FuzzFromWire(f *testing.F) {
	k, err := paillier.GenerateKey(nil, 256)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(1), 4, []byte{1, 2, 3}, 1, true)
	f.Add(uint64(0), 0, []byte{}, -1, false)
	f.Add(uint64(9), 1, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 3, true)
	f.Fuzz(func(t *testing.T, req uint64, dim int, cipher []byte, exp int, obf bool) {
		w := &WireEnvelope{
			Req:        req,
			Shape:      []int{dim},
			Cipher:     []*paillier.Ciphertext{paillier.ParseCiphertext(cipher)},
			Exp:        exp,
			Obfuscated: obf,
		}
		env, err := FromWire(w, &k.PublicKey)
		if err != nil {
			return // rejected: fine
		}
		// Accepted frames must be internally consistent.
		if env.CT == nil || env.CT.Size() != 1 || dim != 1 {
			t.Fatalf("accepted inconsistent frame: dim=%d", dim)
		}
	})
}
