package protocol

import (
	"runtime"
	"testing"

	"ppstream/internal/paillier"
	"ppstream/internal/stream"
)

// FuzzWireFrameDecode drives the full receive path of a session with
// adversarial bytes: the TCP edge's decoder — preface, frame header, body —
// and then the validation the server/client readers run on what it
// delivers: FromWire under the public key, span conversion, trace-context
// validation. None of it may panic, and all of it together may not
// allocate more than wireAllocPerByte times the bytes it was given plus
// the edge's fixed buffers: every count, width, shape and slot size in a
// frame is the peer's to choose; the network is untrusted (Section II-C).
func FuzzWireFrameDecode(f *testing.F) {
	RegisterServiceWire()
	k, err := paillier.GenerateKey(nil, 256)
	if err != nil {
		f.Fatal(err)
	}
	pk := &k.PublicKey

	for _, m := range goldenFrames() {
		f.Add(encodeFrames(f, true, m))
	}
	// Packed replies (256-bit key: three 77-bit slots per ciphertext): an
	// honest one, then slot bits, counts and shapes chosen to make the
	// receiver divide by zero, overflow the logical size, or size an
	// allocation from it.
	packed := func(slotBits int, shape []int, ciphers int) {
		env := &WireEnvelope{Req: 9, Shape: shape, SlotBits: slotBits, Exp: 2, Obfuscated: true}
		for i := 0; i < ciphers; i++ {
			env.Cipher = append(env.Cipher, paillier.ParseCiphertext([]byte{byte(i + 1)}))
		}
		f.Add(encodeFrames(f, false, &stream.Message{Seq: 9, Payload: &roundFrame{Round: 1, Env: env}}))
	}
	packed(77, []int{6}, 2)
	packed(77, []int{7}, 2)
	packed(77, []int{2, 3}, 6)
	packed(maxSlotBits, []int{1}, 1)
	packed(1, []int{maxWireElements}, 1)
	packed(254, []int{maxWireElements}, 3)
	packed(77, []int{1 << 10, 1 << 10}, 0)
	packed(77, []int{1 << 18, 2, 2}, 1)
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
				_ = p.TC.traceID() // nil-safe by contract
				_ = fromWireSpans(p.Spans)
				w = p.Env
			case *WireEnvelope:
				w = p
			}
			if w == nil {
				continue
			}
			env, err := FromWire(w, pk)
			if err == nil && env.CT == nil && env.Sh == nil && env.Plain == nil && env.Result == nil {
				t.Fatal("FromWire accepted an envelope that carries nothing")
			}
			if err == nil && env.SlotBits != 0 && env.CT.Size() != pk.PackedLen(env.Shape.Size(), env.SlotBits) {
				t.Fatalf("FromWire accepted %d ciphertexts for %v at %d slot bits", env.CT.Size(), env.Shape, env.SlotBits)
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
