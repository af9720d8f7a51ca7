package protocol

import (
	"bytes"
	"encoding/gob"
	"math"
	"runtime"
	"testing"

	"ppstream/internal/paillier"
)

// FuzzWireFrameDecode drives the full receive path of a session frame
// with adversarial bytes: gob decode into roundFrame, then the same
// validation the server/client readers run — FromWire under the public
// key, span conversion, and trace-context validation. None of it may
// panic, and FromWire may not allocate more than a small multiple of the
// frame it was handed: a packed reply's slot bits, ciphertext count and
// logical shape are all the peer's to choose; the network is untrusted
// (Section II-C).
func FuzzWireFrameDecode(f *testing.F) {
	k, err := paillier.GenerateKey(nil, 256)
	if err != nil {
		f.Fatal(err)
	}
	pk := &k.PublicKey

	seed := func(rf roundFrame) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(rf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(roundFrame{
		Round: 1,
		Env: &WireEnvelope{
			Req:    7,
			Shape:  []int{2},
			Cipher: [][]byte{{0x05}, {0x09}},
			Exp:    3,
		},
		TC: &TraceContext{Ver: TraceV1, ID: "fuzz-req"},
	})
	seed(roundFrame{
		Round: 2,
		Env: &WireEnvelope{
			Req:         7,
			Result:      []float64{1.5, -2.5},
			ResultShape: []int{2},
		},
		Spans: []WireSpan{{Party: "data", Name: "relu", Round: 1, Nanos: 42}, {Party: "x", Nanos: -1}},
	})
	// Packed replies (256-bit key: three 77-bit slots per ciphertext): an
	// honest one, then slot bits, counts and shapes chosen to make the
	// decoder divide by zero, overflow the logical size, or size an
	// allocation from it.
	packed := func(slotBits int, shape []int, ciphers int) {
		env := &WireEnvelope{Req: 9, Shape: shape, SlotBits: slotBits, Exp: 2, Obfuscated: true}
		for i := 0; i < ciphers; i++ {
			env.Cipher = append(env.Cipher, []byte{byte(i + 1)})
		}
		seed(roundFrame{Round: 1, Env: env})
	}
	packed(77, []int{6}, 2)
	packed(77, []int{7}, 2)
	packed(77, []int{2, 3}, 6)
	packed(-5, []int{4}, 4)
	packed(math.MaxInt, []int{1}, 1)
	packed(1, []int{1 << 40}, 1)
	packed(254, []int{math.MaxInt}, 3)
	packed(77, []int{1 << 32, 1 << 32}, 0)
	packed(77, []int{1 << 62, 2, 2}, 1)
	packed(77, []int{math.MaxInt, math.MaxInt}, 1)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		var rf roundFrame
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rf); err != nil {
			return
		}
		_ = rf.TC.traceID() // nil-safe by contract
		_ = fromWireSpans(rf.Spans)
		if rf.Env != nil {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			env, err := FromWire(rf.Env, pk)
			runtime.ReadMemStats(&after)
			if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<16); got > ceiling {
				t.Fatalf("FromWire allocated %d bytes for a %d-byte frame (ceiling %d)", got, len(data), ceiling)
			}
			if err == nil && env.CT == nil && env.Result == nil {
				t.Fatal("FromWire accepted an envelope with neither ciphertext nor result")
			}
			if err == nil && env.SlotBits != 0 && env.CT.Size() != pk.PackedLen(env.Shape.Size(), env.SlotBits) {
				t.Fatalf("FromWire accepted %d ciphertexts for %v at %d slot bits", env.CT.Size(), env.Shape, env.SlotBits)
			}
		}
	})
}
