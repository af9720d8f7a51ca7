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

// TraceV1 is the current trace-context version. A receiver honours only
// versions it knows; unknown versions are ignored rather than rejected,
// and frames without a TraceContext at all keep working, so tracing never
// breaks a request.
const TraceV1 = 1

// TraceContext is the distributed-tracing header carried by every round
// frame: the request's trace ID, assigned where the request enters the
// system (protocol.Client.Infer or stream.Pipeline.Submit), under which
// both parties record their spans.
type TraceContext struct {
	Ver int
	ID  string
}

// traceID returns a received trace context's ID, or "" when the context
// is absent or of a version that must not be honoured.
func (tc *TraceContext) traceID() string {
	if tc != nil && tc.Ver == TraceV1 {
		return tc.ID
	}
	return ""
}

// WireSpan is the wire form of one server-side trace segment, shipped
// back to the client in the final round frame so it can merge both
// parties' spans into one obs.TraceTree.
type WireSpan struct {
	Party string
	Name  string
	Round int
	Nanos int64
	Cost  *WireCost // nil for a segment that recorded no crypto work
	// Backend names the crypto backend that executed the span's round.
	Backend string
}

// WireCost is the wire form of a segment's obs.CostStats crypto-cost
// profile: the same fields, each a 64-bit count on the wire, in this
// order. Changing the set changes stream.WireVersion (wire.lock).
type WireCost struct {
	ModExps        uint64
	MulMods        uint64
	ModInverses    uint64
	Rerands        uint64
	PoolHits       uint64
	PoolMisses     uint64
	Encrypts       uint64
	Decrypts       uint64
	CipherBytesIn  uint64
	CipherBytesOut uint64
	// The non-Paillier backends: Beaver triples
	// and opened share words (ss-gc linear), garbled AND gates and
	// extension OTs (gc relu), and plaintext multiply-accumulates (clear).
	Triples     uint64
	OpenedWords uint64
	GCGates     uint64
	ExtOTs      uint64
	PlainOps    uint64
}

// toWireCost converts a segment's cost annotation, nil for segments
// without one (or with nothing recorded).
func toWireCost(st *obs.CostStats) *WireCost {
	if st == nil || st.IsZero() {
		return nil
	}
	return &WireCost{
		ModExps:        st.ModExps,
		MulMods:        st.MulMods,
		ModInverses:    st.ModInverses,
		Rerands:        st.Rerands,
		PoolHits:       st.PoolHits,
		PoolMisses:     st.PoolMisses,
		Encrypts:       st.Encrypts,
		Decrypts:       st.Decrypts,
		CipherBytesIn:  st.CipherBytesIn,
		CipherBytesOut: st.CipherBytesOut,
		Triples:        st.Triples,
		OpenedWords:    st.OpenedWords,
		GCGates:        st.GCGates,
		ExtOTs:         st.ExtOTs,
		PlainOps:       st.PlainOps,
	}
}

// fromWireCost converts a received cost profile.
func fromWireCost(w *WireCost) *obs.CostStats {
	if w == nil {
		return nil
	}
	return &obs.CostStats{
		ModExps:        w.ModExps,
		MulMods:        w.MulMods,
		ModInverses:    w.ModInverses,
		Rerands:        w.Rerands,
		PoolHits:       w.PoolHits,
		PoolMisses:     w.PoolMisses,
		Encrypts:       w.Encrypts,
		Decrypts:       w.Decrypts,
		CipherBytesIn:  w.CipherBytesIn,
		CipherBytesOut: w.CipherBytesOut,
		Triples:        w.Triples,
		OpenedWords:    w.OpenedWords,
		GCGates:        w.GCGates,
		ExtOTs:         w.ExtOTs,
		PlainOps:       w.PlainOps,
	}
}

// toWireSpans converts trace segments for the result frame.
func toWireSpans(segs []obs.Segment) []WireSpan {
	if len(segs) == 0 {
		return nil
	}
	out := make([]WireSpan, len(segs))
	for i, s := range segs {
		out[i] = WireSpan{Party: s.Party, Name: s.Name, Round: s.Round, Nanos: s.Dur.Nanoseconds(), Cost: toWireCost(s.Cost), Backend: s.Backend}
	}
	return out
}

// fromWireSpans converts received spans back into trace segments,
// dropping negative durations a hostile peer might announce.
func fromWireSpans(spans []WireSpan) []obs.Segment {
	if len(spans) == 0 {
		return nil
	}
	out := make([]obs.Segment, 0, len(spans))
	for _, s := range spans {
		if s.Nanos < 0 {
			continue
		}
		out = append(out, obs.Segment{Party: s.Party, Name: s.Name, Round: s.Round, Dur: time.Duration(s.Nanos), Cost: fromWireCost(s.Cost), Backend: s.Backend})
	}
	return out
}

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
// (and, for the terminal hop, the final result) ever cross the wire: raw
// inputs and model parameters never leave their provider (Section II-C).
// An ss-gc round carries the two share words per element, and a clear
// round — certified leak-free past the boundary — carries signed integers.
//
// The slices are shared, not copied: ToWire points them at the envelope's
// own tensors and FromWire builds its tensors over them, and the edge
// streams the integers straight between their big.Ints and the connection
// (stream.WireWriter.Next / WireReader.Next). A WireEnvelope read off an
// edge is structurally bounded but not yet validated under any key; that
// is FromWire's job.
type WireEnvelope struct {
	Req        uint64
	Shape      []int
	Cipher     []*paillier.Ciphertext // fixed-width big-endian ring elements on the wire
	Exp        int
	Obfuscated bool
	// Result carries the final plaintext output (terminal hop only);
	// non-nil marks the envelope as terminal.
	Result      []float64
	ResultShape []int
	// Backend is the backend.Kind wire code of the payload (0 =
	// paillier-he).
	Backend int32
	// Shares0/Shares1 carry the two additive share words per element for
	// ss-gc rounds, in flat tensor order.
	Shares0 []uint64
	Shares1 []uint64
	// Plain carries the clear rounds' integers: on the wire a sign byte (0
	// positive / 1 negative) and a fixed-width big-endian magnitude each.
	Plain []*big.Int
	// SlotBits, when non-zero, marks Cipher as a packed paillier-he reply:
	// Shape is still the logical tensor shape, and Cipher carries
	// ⌈Shape.Size()/S⌉ ciphertexts of S = ⌊(bitlen(n)−2)/SlotBits⌋ values
	// each. Zero is one value per ciphertext (every client-to-server
	// frame).
	SlotBits int
}

// Limits on what a peer may announce. Each is compared with the value read
// off the wire, together with the bytes left in the frame, before the
// allocation that value sizes (stream.WireReader.Len).
const (
	// maxWireElements bounds the elements of one tensor — ciphertexts,
	// share words, integers, result values. The largest Table III input is
	// 3072 (CIFAR-10); conv feature maps reach the tens of thousands.
	maxWireElements = 1 << 20
	// maxWireRank bounds a shape's dimensions (batch, channel, height,
	// width, with room to spare).
	maxWireRank = 8
	// maxPlainElementBytes bounds one clear-round integer on the wire:
	// sign byte plus magnitude. Stage outputs at scale F^(exp+1) stay far
	// below this.
	maxPlainElementBytes = stream.MaxWireElement
	// maxSlotBits bounds a packed reply's slot width: no slot is wider
	// than the widest modulus a Hello may announce.
	maxSlotBits = 8 * maxHelloKeyBytes
	// maxWireSpans bounds the server spans of one request (four per round).
	maxWireSpans = 4 * maxWirePlan
	// maxWirePlan bounds the rounds of a backend plan.
	maxWirePlan = 256
)

// Payload tags of the session's frame types (stream.RegisterWireType).
const (
	tagEnvelope uint16 = 1 + iota
	tagHello
	tagRoundFrame
)

// RegisterWire registers the envelope's wire decoder. Call once per
// process before using TCP edges.
func RegisterWire() {
	stream.RegisterWireType(tagEnvelope, func(r *stream.WireReader) any { return decodeEnvelope(r) })
}

// ToWire converts an Envelope to its wire form. The result shares the
// envelope's ciphertexts, integers and result values; neither side may
// modify them afterwards.
func ToWire(env *Envelope) (*WireEnvelope, error) {
	w := &WireEnvelope{Req: env.Req, Exp: env.Exp, Obfuscated: env.Obfuscated}
	if env.Result != nil {
		w.Result = env.Result.Data()
		w.ResultShape = env.Result.Shape()
		return w, nil
	}
	kind := env.BackendKind()
	w.Backend = kind.Code()
	switch kind {
	case backend.PaillierHE:
		if env.CT == nil {
			return nil, errors.New("protocol: envelope has neither ciphertext nor result")
		}
		w.Shape = env.CT.Shape()
		if env.SlotBits != 0 {
			w.SlotBits, w.Shape = env.SlotBits, env.Shape
		}
		w.Cipher = env.CT.Data()
		for i, ct := range w.Cipher {
			if ct == nil {
				return nil, fmt.Errorf("protocol: nil ciphertext at %d", i)
			}
		}
	case backend.SSGC:
		if env.Sh == nil {
			return nil, errors.New("protocol: ss-gc envelope has no shares")
		}
		w.Shape = env.Sh.Shape()
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
		w.Shape = env.Plain.Shape()
		w.Plain = env.Plain.Data()
		for i, v := range w.Plain {
			if v == nil {
				return nil, fmt.Errorf("protocol: nil plaintext at %d", i)
			}
		}
	default:
		return nil, fmt.Errorf("protocol: cannot serialize backend %q", kind)
	}
	return w, nil
}

// FromWire validates a WireEnvelope under the given public key and builds
// the Envelope over its slices. Malformed frames (wrong sizes, out-of-range
// ciphertexts) are rejected — the receiving provider treats the network as
// untrusted.
func FromWire(w *WireEnvelope, pk *paillier.PublicKey) (*Envelope, error) {
	if w == nil {
		return nil, errors.New("protocol: nil wire envelope")
	}
	env := &Envelope{Req: w.Req, Exp: w.Exp, Obfuscated: w.Obfuscated}
	if w.Result != nil {
		res, err := tensor.FromSlice(w.Result, w.ResultShape...)
		if err != nil {
			return nil, fmt.Errorf("protocol: malformed result: %w", err)
		}
		env.Result = res
		return env, nil
	}
	kind, err := backend.KindFromCode(w.Backend)
	if err != nil {
		return nil, fmt.Errorf("protocol: %w", err)
	}
	env.Backend = kind
	shape := tensor.Shape(w.Shape)
	if err := shape.Validate(); err != nil {
		return nil, fmt.Errorf("protocol: malformed shape: %w", err)
	}
	switch kind {
	case backend.PaillierHE:
		ctShape := shape
		if w.SlotBits != 0 {
			// A packed reply: the count is checked against the logical size,
			// which a hostile shape can overflow to anything.
			if n := pk.PackedLen(shape.Size(), w.SlotBits); n == 0 || len(w.Cipher) != n {
				return nil, fmt.Errorf("protocol: %d ciphertexts for shape %v at %d slot bits under a %d-bit key", len(w.Cipher), shape, w.SlotBits, pk.Bits())
			}
			ctShape = tensor.Shape{len(w.Cipher)}
			env.SlotBits, env.Shape = w.SlotBits, shape
		} else if len(w.Cipher) != shape.Size() {
			return nil, fmt.Errorf("protocol: %d ciphertexts for shape %v", len(w.Cipher), shape)
		}
		for i, c := range w.Cipher {
			if err := pk.CheckCiphertext(c); err != nil {
				return nil, fmt.Errorf("protocol: ciphertext %d: %w", i, err)
			}
		}
		if env.CT, err = tensor.FromSlice(w.Cipher, ctShape...); err != nil {
			return nil, fmt.Errorf("protocol: %w", err)
		}
	case backend.SSGC:
		if len(w.Shares0) != shape.Size() || len(w.Shares1) != shape.Size() {
			return nil, fmt.Errorf("protocol: %d/%d share words for shape %v", len(w.Shares0), len(w.Shares1), shape)
		}
		sh := tensor.New[secshare.Shares](shape...)
		for i := range w.Shares0 {
			sh.SetFlat(i, secshare.Shares{S: [2]uint64{w.Shares0[i], w.Shares1[i]}})
		}
		env.Sh = sh
	case backend.Clear:
		if len(w.Plain) != shape.Size() {
			return nil, fmt.Errorf("protocol: %d plaintexts for shape %v", len(w.Plain), shape)
		}
		for i, v := range w.Plain {
			if v == nil {
				return nil, fmt.Errorf("protocol: plaintext %d is nil", i)
			}
			if n := 1 + (v.BitLen()+7)/8; n > maxPlainElementBytes {
				return nil, fmt.Errorf("protocol: plaintext %d is %d bytes, limit %d", i, n, maxPlainElementBytes)
			}
		}
		if env.Plain, err = tensor.FromSlice(w.Plain, shape...); err != nil {
			return nil, fmt.Errorf("protocol: %w", err)
		}
	}
	return env, nil
}

// WireTag and EncodeWire make the envelope a stream.WirePayload.
func (w *WireEnvelope) WireTag() uint16 { return tagEnvelope }

// EncodeWire writes the envelope's fixed fields, the two shapes, and then
// every vector as a count followed by fixed-width elements. The integer
// vectors announce their element width — the widest element's, which for
// ciphertexts is ⌈bitlen(n²)/8⌉ but for a vanishing share of vectors — and
// each element goes from its big.Int into the edge's buffer in one copy.
func (w *WireEnvelope) EncodeWire(ww *stream.WireWriter) {
	ww.U64(w.Req)
	ww.I32(w.Exp)
	ww.U32(uint32(w.Backend))
	ww.Len(w.SlotBits)
	var flags uint8
	if w.Obfuscated {
		flags |= envObfuscated
	}
	if w.Result != nil {
		flags |= envResult
	}
	ww.U8(flags)
	encodeShape(ww, w.Shape)
	encodeShape(ww, w.ResultShape)
	ww.Len(len(w.Result))
	for _, v := range w.Result {
		ww.U64(math.Float64bits(v))
	}

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

const (
	envObfuscated = 1 << iota
	envResult
	envFlagsKnown = envObfuscated | envResult
)

func encodeShape(ww *stream.WireWriter, shape []int) {
	if len(shape) > maxWireRank {
		ww.Fail(fmt.Errorf("protocol: shape of rank %d, limit %d", len(shape), maxWireRank))
		return
	}
	ww.U8(uint8(len(shape)))
	for _, d := range shape {
		ww.Len(d)
	}
}

// decodeShape reads a shape whose rank and element count are both bounded;
// a dimension product past maxWireElements is rejected, not overflowed.
func decodeShape(r *stream.WireReader, field string) []int {
	rank := int(r.U8())
	if rank > maxWireRank {
		r.Reject(field+" rank", "%d, limit %d", rank, maxWireRank)
		return nil
	}
	if rank == 0 {
		return nil
	}
	shape := make([]int, rank)
	size := 1
	for i := range shape {
		shape[i] = r.Len(field+" size", maxWireElements, 0)
		if size *= shape[i]; size > maxWireElements {
			r.Reject(field+" size", "more than %d elements", maxWireElements)
			return nil
		}
	}
	return shape
}

// decodeEnvelope reads what EncodeWire wrote. Every vector goes through
// stream.ReadVec — its count checked against maxWireElements and the bytes
// left in the frame before it sizes anything — so what comes back is
// bounded in every dimension, but validated under no key; see FromWire.
func decodeEnvelope(r *stream.WireReader) *WireEnvelope {
	w := &WireEnvelope{Req: r.U64(), Exp: r.I32(), Backend: int32(r.U32())}
	w.SlotBits = r.Len("slot bits", maxSlotBits, 0)
	flags := r.U8()
	if flags&^envFlagsKnown != 0 {
		r.Reject("envelope flags", "unknown bits in %08b", flags)
	}
	w.Obfuscated = flags&envObfuscated != 0
	w.Shape = decodeShape(r, "shape")
	w.ResultShape = decodeShape(r, "result shape")
	w.Result = stream.ReadVec(r, "result count", maxWireElements, 8, func() float64 { return math.Float64frombits(r.U64()) })
	if terminal := flags&envResult != 0; terminal && w.Result == nil {
		w.Result = []float64{}
	} else if !terminal && w.Result != nil {
		r.Reject("result count", "%d values in a frame not marked terminal", len(w.Result))
	}

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
}

func decodeHello(r *stream.WireReader) *Hello {
	return &Hello{N: r.Bytes("hello key bytes", maxHelloKeyBytes), Factor: r.I64(), Workers: r.I32(), Profile: r.String("profile")}
}

// WireTag and EncodeWire make the round frame a stream.WirePayload.
func (f *roundFrame) WireTag() uint16 { return tagRoundFrame }

const (
	frameEnv = 1 << iota
	frameTC
	frameFlagsKnown = frameEnv | frameTC
)

// EncodeWire writes the frame's scalars, its plan and spans, and last the
// envelope, so the ciphertexts are the tail of the frame.
func (f *roundFrame) EncodeWire(w *stream.WireWriter) {
	w.I32(f.Round)
	w.I64(f.DeadlineMS)
	var flags uint8
	if f.Env != nil {
		flags |= frameEnv
	}
	if f.TC != nil {
		flags |= frameTC
	}
	w.U8(flags)
	if f.TC != nil {
		w.I32(f.TC.Ver)
		w.String(f.TC.ID)
	}
	w.String(f.Profile)
	w.Len(len(f.Plan))
	for _, code := range f.Plan {
		w.U32(uint32(code))
	}
	w.Len(len(f.Spans))
	for i := range f.Spans {
		f.Spans[i].encodeWire(w)
	}
	if f.Env != nil {
		f.Env.EncodeWire(w)
	}
}

func decodeRoundFrame(r *stream.WireReader) *roundFrame {
	f := &roundFrame{Round: r.I32(), DeadlineMS: r.I64()}
	flags := r.U8()
	if flags&^frameFlagsKnown != 0 {
		r.Reject("round frame flags", "unknown bits in %08b", flags)
	}
	if flags&frameTC != 0 {
		f.TC = &TraceContext{Ver: r.I32(), ID: r.String("trace id")}
	}
	f.Profile = r.String("profile")
	f.Plan = stream.ReadVec(r, "plan length", maxWirePlan, 4, func() int32 { return int32(r.U32()) })
	f.Spans = stream.ReadVec(r, "span count", maxWireSpans, wireSpanMinBytes, func() WireSpan { return decodeSpan(r) })
	if flags&frameEnv != 0 && r.Err() == nil {
		f.Env = decodeEnvelope(r)
	}
	return f
}

// wireSpanMinBytes is a span with empty strings and no cost: three length
// prefixes, round, nanoseconds, and the cost marker.
const wireSpanMinBytes = 3*4 + 4 + 8 + 1

func (s *WireSpan) encodeWire(w *stream.WireWriter) {
	w.String(s.Party)
	w.String(s.Name)
	w.String(s.Backend)
	w.I32(s.Round)
	w.I64(s.Nanos)
	if s.Cost == nil {
		w.U8(0)
		return
	}
	w.U8(1)
	for _, v := range s.Cost.counts() {
		w.U64(*v)
	}
}

func decodeSpan(r *stream.WireReader) WireSpan {
	s := WireSpan{Party: r.String("span party"), Name: r.String("span name"), Backend: r.String("span backend"), Round: r.I32(), Nanos: r.I64()}
	switch marker := r.U8(); marker {
	case 0:
	case 1:
		s.Cost = new(WireCost)
		for _, v := range s.Cost.counts() {
			*v = r.U64()
		}
	default:
		r.Reject("span cost marker", "%d", marker)
	}
	return s
}

// counts lists the cost profile's fields in wire order.
func (c *WireCost) counts() [15]*uint64 {
	return [15]*uint64{
		&c.ModExps, &c.MulMods, &c.ModInverses, &c.Rerands, &c.PoolHits, &c.PoolMisses,
		&c.Encrypts, &c.Decrypts, &c.CipherBytesIn, &c.CipherBytesOut,
		&c.Triples, &c.OpenedWords, &c.GCGates, &c.ExtOTs, &c.PlainOps,
	}
}
