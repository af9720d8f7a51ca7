package protocol

import (
	"math/big"
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
// provider's frame validation: no input may panic, and an accepted frame
// is one flat tensor of the one backend whose vector is non-empty — both
// share vectors, at equal length, for ss-gc. The seeds are an honest
// ciphertext, a frame with no vector and one with two.
func FuzzFromWire(f *testing.F) {
	k, err := paillier.GenerateKey(nil, 256)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(1), []byte{1, 2, 3}, 0, 0, 0)
	f.Add(uint64(0), []byte{}, 0, 0, 0)
	f.Add(uint64(9), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 0, 0, 2)
	f.Fuzz(func(t *testing.T, req uint64, cipher []byte, shares0, shares1, plain int) {
		if min(shares0, shares1, plain) < 0 || max(shares0, shares1, plain) > 64 {
			return
		}
		w := &WireEnvelope{Req: req, Shares0: make([]uint64, shares0), Shares1: make([]uint64, shares1)}
		if len(cipher) > 0 {
			w.Cipher = []*paillier.Ciphertext{paillier.ParseCiphertext(cipher)}
		}
		for i := 0; i < plain; i++ {
			w.Plain = append(w.Plain, big.NewInt(int64(i)))
		}
		env, err := FromWire(w, &k.PublicKey)
		if err != nil {
			return // rejected: fine
		}
		var want int
		switch {
		case len(cipher) > 0 && shares0+shares1+plain == 0:
			want = 1
		case shares0 > 0 && shares0 == shares1 && len(cipher)+plain == 0:
			want = shares0
		case plain > 0 && len(cipher)+shares0+shares1 == 0:
			want = plain
		default:
			t.Fatalf("accepted a frame of %d ciphertext bytes, %d/%d share words and %d integers", len(cipher), shares0, shares1, plain)
		}
		if shape, err := env.Payload.Shape(); err != nil || !shape.Equal(tensor.Shape{want}) || env.Req != req {
			t.Fatalf("accepted frame decodes to %v (%v), request %d; want [%d], request %d", shape, err, env.Req, want, req)
		}
	})
}
