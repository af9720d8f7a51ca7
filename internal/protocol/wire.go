package protocol

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"time"

	"ppstream/internal/backend"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/secshare"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// CipherBytes sums the activation payload of a wire envelope at its
// natural size — ciphertexts, share words, or sign-magnitude integers —
// the per-hop traffic cost accounting records.
func (w *WireEnvelope) CipherBytes() uint64 {
	if w == nil {
		return 0
	}
	var n uint64
	for _, c := range w.Cipher {
		n += uint64(c.ByteLen())
	}
	n += 8 * uint64(len(w.Shares0)+len(w.Shares1))
	for _, p := range w.Plain {
		n += 1 + uint64(p.BitLen()+7)/8
	}
	return n
}

// WireEnvelope is the wire form of Envelope for TCP edges between the
// model and data providers. Under the original protocol only ciphertexts
// ever cross the wire: raw inputs, model parameters and the final result
// never leave their provider (Section II-C) — the data provider computes
// the result in its last non-linear stage. An ss-gc round carries the two
// share words per element, and a clear round — past the operator's clear
// boundary — carries signed integers.
//
// It carries only what the receiver cannot derive from its own schedule of
// the network and the session plan: the request ID, the round's elements in
// one non-empty vector, and a packed reply's slot width.
//
// The slices are shared, not copied: ToWire points them at the envelope's
// own tensors and FromWire builds its tensors over them, and the edge
// streams the integers straight between their big.Ints and the connection
// (stream.WireWriter.Next / WireReader.Next). A WireEnvelope read off an
// edge is structurally bounded but not yet validated under any key; that
// is FromWire's job.
type WireEnvelope struct {
	Req    uint64
	Cipher []*paillier.Ciphertext // fixed-width big-endian ring elements on the wire
	// Shares0/Shares1 carry the two additive share words per element for
	// ss-gc rounds, in flat tensor order.
	Shares0 []uint64
	Shares1 []uint64
	// Plain carries the clear rounds' integers: on the wire a sign byte (0
	// positive / 1 negative) and a fixed-width big-endian magnitude each.
	Plain []*big.Int
	// SlotBits, when non-zero, marks Cipher as a packed paillier-he reply:
	// a round output of k values in ⌈k/S⌉ ciphertexts of S =
	// ⌊(bitlen(n)−2)/SlotBits⌋ values each. Zero is one value per
	// ciphertext (every client-to-server frame).
	SlotBits int
}

// Limits on what a peer may announce. Each is compared with the value read
// off the wire, together with the bytes left in the frame, before the
// allocation that value sizes (stream.WireReader.Len).
const (
	// maxWireElements bounds the elements of one vector — ciphertexts,
	// share words, integers. The largest Table III input is
	// 3072 (CIFAR-10); conv feature maps reach the tens of thousands.
	maxWireElements = 1 << 20
	// maxPlainElementBytes bounds one clear-round integer on the wire:
	// sign byte plus magnitude. Stage outputs at scale F^(exp+1) stay far
	// below this.
	maxPlainElementBytes = stream.MaxWireElement
	// maxSlotBits bounds a packed reply's slot width: no slot is wider
	// than the widest modulus a Hello may announce.
	maxSlotBits = 8 * maxHelloKeyBytes
	// maxWireSpans bounds the server spans of one request (four per round).
	maxWireSpans = 4 * maxWirePlan
	// maxWirePlan bounds a backend plan's rounds and a Hello's exponents.
	maxWirePlan = 256
)

// Payload tags of the session's frame types.
const (
	tagEnvelope uint16 = 1 + iota
	tagHello
	tagRoundFrame
)

// init registers the decoders of the frame types with the TCP edges, so
// every process that links this package speaks the session's wire.
func init() {
	stream.RegisterWireType(tagEnvelope, func(r *stream.WireReader) any { return decodeEnvelope(r) })
	stream.RegisterWireType(tagHello, func(r *stream.WireReader) any { return decodeHello(r) })
	stream.RegisterWireType(tagRoundFrame, func(r *stream.WireReader) any { return decodeRoundFrame(r) })
}

// ToWire converts an Envelope to its wire form. The result shares the
// envelope's ciphertexts and integers; neither side may modify them
// afterwards. A terminal envelope, which carries only the plaintext
// result, has no wire form.
func ToWire(env *Envelope) (*WireEnvelope, error) {
	w := &WireEnvelope{Req: env.Req}
	switch env.Kind {
	case backend.PaillierHE:
		if env.CT == nil {
			return nil, errors.New("protocol: envelope has no ciphertext")
		}
		w.Cipher, w.SlotBits = env.CT.Data(), env.SlotBits
		for i, ct := range w.Cipher {
			if ct == nil {
				return nil, fmt.Errorf("protocol: nil ciphertext at %d", i)
			}
		}
	case backend.SSGC:
		if env.Sh == nil {
			return nil, errors.New("protocol: ss-gc envelope has no shares")
		}
		w.Shares0 = make([]uint64, env.Sh.Size())
		w.Shares1 = make([]uint64, env.Sh.Size())
		for i, s := range env.Sh.Data() {
			w.Shares0[i] = s.S[0]
			w.Shares1[i] = s.S[1]
		}
	case backend.Clear:
		if env.Plain == nil {
			return nil, errors.New("protocol: clear envelope has no values")
		}
		w.Plain = env.Plain.Data()
		for i, v := range w.Plain {
			if v == nil {
				return nil, fmt.Errorf("protocol: nil plaintext at %d", i)
			}
		}
	default:
		return nil, fmt.Errorf("protocol: cannot serialize backend %q", env.Kind)
	}
	return w, nil
}

// FromWire validates a WireEnvelope under the given public key and builds
// the Envelope over its slices: a flat tensor on the backend its one
// non-empty vector names — Cipher for paillier-he, both share vectors at
// equal length for ss-gc, Plain for clear. An envelope with no non-empty
// vector or with more than one, an out-of-range ciphertext or an over-wide
// integer is refused — the receiving provider treats the network as
// untrusted. The element count and the backend are the receiving role's
// to check against its own schedule and the session plan.
func FromWire(w *WireEnvelope, pk *paillier.PublicKey) (*Envelope, error) {
	if w == nil {
		return nil, errors.New("protocol: nil wire envelope")
	}
	env := &Envelope{Req: w.Req}
	cipher, shares, plain := len(w.Cipher), len(w.Shares0), len(w.Plain)
	var err error
	switch {
	case cipher > 0 && shares+len(w.Shares1)+plain == 0:
		for i, c := range w.Cipher {
			if err := pk.CheckCiphertext(c); err != nil {
				return nil, fmt.Errorf("protocol: ciphertext %d: %w", i, err)
			}
		}
		env.Kind, env.SlotBits = backend.PaillierHE, w.SlotBits
		env.CT, err = tensor.FromSlice(w.Cipher, cipher)
	case shares > 0 && shares == len(w.Shares1) && cipher+plain == 0:
		env.Kind, env.Sh = backend.SSGC, tensor.New[secshare.Shares](shares)
		for i := range w.Shares0 {
			env.Sh.SetFlat(i, secshare.Shares{S: [2]uint64{w.Shares0[i], w.Shares1[i]}})
		}
	case plain > 0 && cipher+shares+len(w.Shares1) == 0:
		for i, v := range w.Plain {
			if v == nil {
				return nil, fmt.Errorf("protocol: plaintext %d is nil", i)
			}
			if n := 1 + (v.BitLen()+7)/8; n > maxPlainElementBytes {
				return nil, fmt.Errorf("protocol: plaintext %d is %d bytes, limit %d", i, n, maxPlainElementBytes)
			}
		}
		env.Kind = backend.Clear
		env.Plain, err = tensor.FromSlice(w.Plain, plain)
	default:
		return nil, fmt.Errorf("protocol: wire envelope of %d ciphertexts, %d/%d share words and %d integers: want one backend's elements",
			cipher, shares, len(w.Shares1), plain)
	}
	if err != nil {
		return nil, fmt.Errorf("protocol: %w", err)
	}
	return env, nil
}

// WireTag and EncodeWire make the envelope a stream.WirePayload.
func (w *WireEnvelope) WireTag() uint16 { return tagEnvelope }

// EncodeWire writes the envelope's request ID and slot width, and then
// every vector as a count followed by fixed-width elements. The integer
// vectors announce their element width — the widest element's, which for
// ciphertexts is ⌈bitlen(n²)/8⌉ but for a vanishing share of vectors — and
// each element goes from its big.Int into the edge's buffer in one copy.
func (w *WireEnvelope) EncodeWire(ww *stream.WireWriter) {
	ww.U64(w.Req)
	ww.Len(w.SlotBits)

	width := 1
	for _, c := range w.Cipher {
		width = max(width, c.ByteLen())
	}
	ww.U16(uint16(width))
	ww.Len(len(w.Cipher))
	for _, c := range w.Cipher {
		if b := ww.Next(width); b != nil {
			c.FillBytes(b)
		}
	}

	for _, shares := range [2][]uint64{w.Shares0, w.Shares1} {
		ww.Len(len(shares))
		for _, v := range shares {
			ww.U64(v)
		}
	}

	width = 0
	for _, v := range w.Plain {
		width = max(width, (v.BitLen()+7)/8)
	}
	ww.U16(uint16(width))
	ww.Len(len(w.Plain))
	for _, v := range w.Plain {
		if b := ww.Next(1 + width); b != nil {
			b[0] = 0
			if v.Sign() < 0 {
				b[0] = 1
			}
			v.FillBytes(b[1:])
		}
	}
}

// decodeEnvelope reads what EncodeWire wrote. Every vector goes through
// stream.ReadVec — its count checked against maxWireElements and the bytes
// left in the frame before it sizes anything — so what comes back is
// bounded in every dimension, but validated under no key; see FromWire.
func decodeEnvelope(r *stream.WireReader) *WireEnvelope {
	w := &WireEnvelope{Req: r.U64(), SlotBits: r.Len("slot bits", maxSlotBits, 0)}

	width := int(r.U16())
	if width == 0 || width > stream.MaxWireElement {
		r.Reject("ciphertext bytes", "%d, limit %d", width, stream.MaxWireElement)
	}
	w.Cipher = stream.ReadVec(r, "ciphertext count", maxWireElements, width, func() *paillier.Ciphertext {
		return paillier.ParseCiphertext(r.Next(width))
	})
	w.Shares0 = stream.ReadVec(r, "share count", maxWireElements, 8, r.U64)
	w.Shares1 = stream.ReadVec(r, "share count", maxWireElements, 8, r.U64)

	width = 1 + int(r.U16())
	if width > maxPlainElementBytes {
		r.Reject("plaintext bytes", "%d with the sign byte, limit %d", width, maxPlainElementBytes)
	}
	w.Plain = stream.ReadVec(r, "plaintext count", maxWireElements, width, func() *big.Int {
		v := new(big.Int)
		if b := r.Next(width); b != nil {
			if b[0] > 1 {
				r.Reject("plaintext sign", "byte %d", b[0])
			}
			if v.SetBytes(b[1:]); b[0] == 1 {
				v.Neg(v)
			}
		}
		return v
	})
	return w
}

// WireTag and EncodeWire make the Hello a stream.WirePayload.
func (h *Hello) WireTag() uint16 { return tagHello }

func (h *Hello) EncodeWire(w *stream.WireWriter) {
	w.Bytes(h.N)
	w.I64(h.Factor)
	w.I32(h.Workers)
	w.String(h.Profile)
	w.Len(len(h.Plan))
	for _, code := range h.Plan {
		w.U32(uint32(code))
	}
	w.Len(len(h.Exps))
	for _, exp := range h.Exps {
		w.U32(uint32(exp))
	}
	w.U64(math.Float64bits(h.InputMax))
}

func decodeHello(r *stream.WireReader) *Hello {
	h := &Hello{N: r.Bytes("hello key bytes", maxHelloKeyBytes), Factor: r.I64(), Workers: r.I32(), Profile: r.String("profile")}
	h.Plan = stream.ReadVec(r, "plan length", maxWirePlan, 4, func() int32 { return int32(r.U32()) })
	h.Exps = stream.ReadVec(r, "exponents length", maxWirePlan, 4, func() int32 { return int32(r.U32()) })
	h.InputMax = math.Float64frombits(r.U64())
	return h
}

// WireTag and EncodeWire make the round frame a stream.WirePayload.
func (f *roundFrame) WireTag() uint16 { return tagRoundFrame }

// frameEnv is a round frame's one flag: an envelope follows.
const frameEnv = 1

// EncodeWire writes the frame's scalars, its trace ID and spans, and last
// the envelope, so the ciphertexts are the tail of the frame.
func (f *roundFrame) EncodeWire(w *stream.WireWriter) {
	w.I32(f.Round)
	w.I64(f.DeadlineMS)
	var flags uint8
	if f.Env != nil {
		flags |= frameEnv
	}
	w.U8(flags)
	w.String(f.Trace)
	w.Len(len(f.Spans))
	for i := range f.Spans {
		encodeSpan(w, &f.Spans[i])
	}
	if f.Env != nil {
		f.Env.EncodeWire(w)
	}
}

func decodeRoundFrame(r *stream.WireReader) *roundFrame {
	f := &roundFrame{Round: r.I32(), DeadlineMS: r.I64()}
	flags := r.U8()
	if flags&^frameEnv != 0 {
		r.Reject("round frame flags", "unknown bits in %08b", flags)
	}
	f.Trace = r.String("trace id")
	f.Spans = stream.ReadVec(r, "span count", maxWireSpans, wireSpanMinBytes, func() obs.Segment { return decodeSpan(r) })
	if flags&frameEnv != 0 && r.Err() == nil {
		f.Env = decodeEnvelope(r)
	}
	return f
}

// wireSpanMinBytes is a span with empty strings and no cost: three length
// prefixes, round, nanoseconds, and the cost marker.
const wireSpanMinBytes = 3*4 + 4 + 8 + 1

// encodeSpan writes one server-side trace segment: its strings, round and
// duration, then a cost marker and, when the segment recorded crypto work,
// every obs.CostStats field as a u64 in CostStats.Fields order. Changing
// that field set changes stream.WireVersion (the golden frames in
// testdata/wire_v1 pin it).
func encodeSpan(w *stream.WireWriter, s *obs.Segment) {
	w.String(s.Party)
	w.String(s.Name)
	w.String(s.Backend)
	w.I32(s.Round)
	w.I64(s.Dur.Nanoseconds())
	if s.Cost == nil || s.Cost.IsZero() {
		w.U8(0)
		return
	}
	w.U8(1)
	for _, v := range s.Cost.Fields() {
		w.U64(*v)
	}
}

// decodeSpan reads what encodeSpan wrote, refusing a negative duration.
func decodeSpan(r *stream.WireReader) obs.Segment {
	s := obs.Segment{Party: r.String("span party"), Name: r.String("span name"), Backend: r.String("span backend"), Round: r.I32()}
	if s.Dur = time.Duration(r.I64()); s.Dur < 0 {
		r.Reject("span duration", "%v", s.Dur)
	}
	switch marker := r.U8(); marker {
	case 0:
	case 1:
		s.Cost = new(obs.CostStats)
		for _, v := range s.Cost.Fields() {
			*v = r.U64()
		}
	default:
		r.Reject("span cost marker", "%d", marker)
	}
	return s
}
