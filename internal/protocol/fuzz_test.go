package protocol

import (
	"math/big"
	"runtime"
	"testing"

	"ppstream/internal/paillier"
	"ppstream/internal/stream"
)

// FuzzWireFrameDecode drives the full receive path of a session with
// adversarial bytes: the TCP edge's decoder — preface, frame header, body —
// and then the validation the server/client readers run on what it
// delivers: FromWire under the public key, span conversion, trace-context
// validation. None of it may panic, FromWire may accept only an envelope
// of one backend, and all of it together may not allocate more than
// wireAllocPerByte times the bytes it was given plus the edge's fixed
// buffers: every count, width and slot size in a frame is the peer's to
// choose; the network is untrusted (Section II-C).
func FuzzWireFrameDecode(f *testing.F) {
	k, err := paillier.GenerateKey(nil, 256)
	if err != nil {
		f.Fatal(err)
	}
	pk := &k.PublicKey

	for _, m := range goldenFrames() {
		f.Add(encodeFrames(f, true, m))
	}
	// Packed replies (256-bit key: three 77-bit slots per ciphertext) at
	// slot widths up to the widest a frame may announce, and one that
	// carries no ciphertext.
	packed := func(slotBits int, ciphers int) {
		env := &WireEnvelope{Req: 9, SlotBits: slotBits}
		for i := 0; i < ciphers; i++ {
			env.Cipher = append(env.Cipher, paillier.ParseCiphertext([]byte{byte(i + 1)}))
		}
		f.Add(encodeFrames(f, false, &stream.Message{Seq: 9, Payload: &roundFrame{Round: 1, Env: env}}))
	}
	packed(77, 2)
	packed(maxSlotBits, 1)
	packed(1, 3)
	packed(77, 0)
	// Envelopes FromWire refuses whole: no vector, two, and share vectors
	// of unequal length.
	for _, env := range []*WireEnvelope{
		{Req: 9},
		{Req: 9, Cipher: []*paillier.Ciphertext{paillier.ParseCiphertext([]byte{1})}, Plain: []*big.Int{big.NewInt(1)}},
		{Req: 9, Shares0: []uint64{1, 2}, Shares1: []uint64{3}},
	} {
		f.Add(encodeFrames(f, false, &stream.Message{Seq: 9, Payload: &roundFrame{Round: 1, Env: env}}))
	}
	// The layouts later versions retired, behind the current preface: a
	// version-3 failed-stage section and terminal envelope, and a
	// version-4 envelope with its exponent, backend, flags and shape.
	withPreface := func(frame []byte) []byte { return append(append([]byte(nil), preface...), frame...) }
	f.Add(withPreface(failedStageV3()))
	for _, env := range []*wb{terminalEnvelopeV3(), envelopeV4()} {
		f.Add(withPreface(frame(0, tagEnvelope, uint32(len(env.b)), env.b)))
	}
	// Hellos whose reply exponents are empty, one over maxWirePlan, and
	// cut off mid-vector, and one cut off inside its input domain.
	f.Add(encodeFrames(f, false, &stream.Message{Payload: &Hello{N: []byte{0xC5}, Factor: 1000}}))
	for _, body := range []*wb{
		helloToPlan().u32(0).u32(maxWirePlan + 1).raw(make([]byte, 4*(maxWirePlan+1))...),
		helloToPlan().u32(0).u32(3).u32(2).raw(0, 0),
		helloToPlan().u32(0).u32(1).u32(2).raw(0x40, 0x50, 0),
	} {
		f.Add(withPreface(frame(0, tagHello, uint32(len(body.b)), body.b)))
	}
	f.Add([]byte{})
	f.Add(preface)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msgs, _ := decodeFrames(data)
		for _, m := range msgs {
			var w *WireEnvelope
			switch p := m.Payload.(type) {
			case *roundFrame:
				w = p.Env
			case *WireEnvelope:
				w = p
			}
			if w == nil {
				continue
			}
			env, err := FromWire(w, pk)
			if err != nil {
				continue
			}
			vectors := 0
			for _, set := range []bool{env.CT != nil, env.Sh != nil, env.Plain != nil} {
				if set {
					vectors++
				}
			}
			if size, err := env.Payload.Size(); err != nil || size == 0 || vectors != 1 {
				t.Fatalf("FromWire accepted a %q envelope of %d elements (%v) carrying %d vectors", env.Kind, size, err, vectors)
			}
		}
		runtime.ReadMemStats(&after)
		if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(wireAllocPerByte*len(data)+wireAllocFixed); got > ceiling {
			t.Fatalf("decoding a %d-byte stream allocated %d bytes (ceiling %d)", len(data), got, ceiling)
		}
	})
}

// What the receive path may allocate for a stream of n bytes: the fixed
// part is the edge's read buffer and, for the one frame whose announced
// body can exceed what arrived, each vector's first stream.WireChunk
// elements (spans are the largest, 72 bytes each); per byte, the worst case
// is a vector of one-byte ciphertexts, each a slot in a slice that doubles
// as it grows, a Ciphertext, a big.Int and its minimum limb allocation.
const (
	wireAllocPerByte = 192
	wireAllocFixed   = 256 << 10
)
