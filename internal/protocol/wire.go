package protocol

import (
	"errors"
	"fmt"
	"math/big"
	"time"

	"ppstream/internal/backend"
	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/secshare"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// TraceV1 is the current trace-context wire version. A receiver honours
// only versions it knows; unknown (future) versions are ignored rather
// than rejected, and frames without a TraceContext at all — older peers
// — keep working, so tracing never breaks interoperability.
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

// WireSpan is the gob form of one server-side trace segment, shipped
// back to the client in the final round frame so it can merge both
// parties' spans into one obs.TraceTree. Cost is a gob-compatible
// additive extension: frames from peers predating it decode with the
// field nil, and old peers skip it.
type WireSpan struct {
	Party string
	Name  string
	Round int
	Nanos int64
	Cost  *WireCost
	// Backend names the crypto backend that executed the span's round
	// (additive: empty from peers predating backend negotiation).
	Backend string
}

// WireCost is the gob form of a segment's obs.CostStats crypto-cost
// profile. The field set mirrors obs.CostStats; evolution is additive
// only (wire.lock).
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
	// Additive extensions for the non-Paillier backends: Beaver triples
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

// CipherBytes sums the serialized activation payload of a wire envelope
// — ciphertexts, share words, or plaintext integers — the per-hop
// traffic cost accounting records.
func (w *WireEnvelope) CipherBytes() uint64 {
	if w == nil {
		return 0
	}
	var n uint64
	for _, c := range w.Cipher {
		n += uint64(len(c))
	}
	n += 8 * uint64(len(w.Shares0)+len(w.Shares1))
	for _, p := range w.Plain {
		n += uint64(len(p))
	}
	return n
}

// WireEnvelope is the gob-encodable form of Envelope for TCP edges
// between the model and data providers. Under the original protocol only
// ciphertexts (and, for the terminal hop, the final result) ever cross
// the wire: raw inputs and model parameters never leave their provider
// (Section II-C). Backend negotiation extends the frame additively: an
// ss-gc round carries the two share words per element, and a clear round
// — certified leak-free past the boundary — carries sign-magnitude
// plaintext integers. Absent fields (Backend 0) decode to the legacy
// Paillier protocol.
type WireEnvelope struct {
	Req        uint64
	Shape      []int
	Cipher     [][]byte // big-endian ciphertext ring elements
	Exp        int
	Obfuscated bool
	// Result carries the final plaintext output (terminal hop only).
	Result      []float64
	ResultShape []int
	// Backend is the backend.Kind wire code of the payload (0 =
	// paillier-he, the legacy protocol).
	Backend int32
	// Shares0/Shares1 carry the two additive share words per element for
	// ss-gc rounds, in flat tensor order.
	Shares0 []uint64
	Shares1 []uint64
	// Plain carries sign-magnitude big integers (leading sign byte, 0
	// positive / 1 negative, then big-endian magnitude) for clear rounds.
	Plain [][]byte
	// SlotBits, when non-zero, marks Cipher as a packed paillier-he reply:
	// Shape is still the logical tensor shape, and Cipher carries
	// ⌈Shape.Size()/S⌉ ciphertexts of S = ⌊(bitlen(n)−2)/SlotBits⌋ values
	// each. Zero is one value per ciphertext (every client-to-server
	// frame).
	SlotBits int
}

// maxPlainElementBytes bounds one clear-round integer's magnitude. Stage
// outputs at scale F^(exp+1) stay far below this; a hostile frame cannot
// make the receiver allocate unbounded integers.
const maxPlainElementBytes = 4096

// RegisterWire registers the wire types with gob. Call once per process
// before using TCP edges.
func RegisterWire() {
	stream.RegisterWireType(&WireEnvelope{})
}

// ToWire serializes an Envelope.
func ToWire(env *Envelope) (*WireEnvelope, error) {
	w := &WireEnvelope{Req: env.Req, Exp: env.Exp, Obfuscated: env.Obfuscated}
	if env.Result != nil {
		w.Result = append([]float64(nil), env.Result.Data()...)
		w.ResultShape = env.Result.Shape().Clone()
		return w, nil
	}
	kind := env.BackendKind()
	w.Backend = kind.Code()
	switch kind {
	case backend.PaillierHE:
		if env.CT == nil {
			return nil, errors.New("protocol: envelope has neither ciphertext nor result")
		}
		w.Shape = env.CT.Shape().Clone()
		if env.SlotBits != 0 {
			w.SlotBits, w.Shape = env.SlotBits, env.Shape.Clone()
		}
		w.Cipher = make([][]byte, env.CT.Size())
		for i, ct := range env.CT.Data() {
			if ct == nil {
				return nil, fmt.Errorf("protocol: nil ciphertext at %d", i)
			}
			w.Cipher[i] = ct.Value().Bytes()
		}
	case backend.SSGC:
		if env.Sh == nil {
			return nil, errors.New("protocol: ss-gc envelope has no shares")
		}
		w.Shape = env.Sh.Shape().Clone()
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
		w.Shape = env.Plain.Shape().Clone()
		w.Plain = make([][]byte, env.Plain.Size())
		for i, v := range env.Plain.Data() {
			if v == nil {
				return nil, fmt.Errorf("protocol: nil plaintext at %d", i)
			}
			sign := byte(0)
			if v.Sign() < 0 {
				sign = 1
			}
			w.Plain[i] = append([]byte{sign}, v.Bytes()...)
		}
	default:
		return nil, fmt.Errorf("protocol: cannot serialize backend %q", kind)
	}
	return w, nil
}

// FromWire deserializes and validates a WireEnvelope under the given
// public key. Malformed frames (wrong sizes, out-of-range ciphertexts,
// oversized plaintexts) are rejected — the receiving provider treats the
// network as untrusted.
func FromWire(w *WireEnvelope, pk *paillier.PublicKey) (*Envelope, error) {
	if w == nil {
		return nil, errors.New("protocol: nil wire envelope")
	}
	env := &Envelope{Req: w.Req, Exp: w.Exp, Obfuscated: w.Obfuscated}
	if w.Result != nil {
		res, err := tensor.FromSlice(append([]float64(nil), w.Result...), w.ResultShape...)
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
			// A packed reply: the count is checked against the logical size
			// (which a hostile shape can overflow to anything) before it
			// sizes an allocation.
			if n := pk.PackedLen(shape.Size(), w.SlotBits); n == 0 || len(w.Cipher) != n {
				return nil, fmt.Errorf("protocol: %d ciphertexts for shape %v at %d slot bits under a %d-bit key", len(w.Cipher), shape, w.SlotBits, pk.Bits())
			}
			ctShape = tensor.Shape{len(w.Cipher)}
			env.SlotBits, env.Shape = w.SlotBits, shape
		} else if len(w.Cipher) != shape.Size() {
			return nil, fmt.Errorf("protocol: %d ciphertexts for shape %v", len(w.Cipher), shape)
		}
		ct := tensor.New[*paillier.Ciphertext](ctShape...)
		for i, raw := range w.Cipher {
			v := new(big.Int).SetBytes(raw)
			c, err := paillier.NewCiphertextFromValue(v, pk)
			if err != nil {
				return nil, fmt.Errorf("protocol: ciphertext %d: %w", i, err)
			}
			ct.SetFlat(i, c)
		}
		env.CT = ct
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
		plain := tensor.New[*big.Int](shape...)
		for i, raw := range w.Plain {
			if len(raw) == 0 {
				return nil, fmt.Errorf("protocol: plaintext %d is empty", i)
			}
			if len(raw) > maxPlainElementBytes {
				return nil, fmt.Errorf("protocol: plaintext %d is %d bytes, limit %d", i, len(raw), maxPlainElementBytes)
			}
			if raw[0] > 1 {
				return nil, fmt.Errorf("protocol: plaintext %d has sign byte %d", i, raw[0])
			}
			v := new(big.Int).SetBytes(raw[1:])
			if raw[0] == 1 {
				v.Neg(v)
			}
			plain.SetFlat(i, v)
		}
		env.Plain = plain
	}
	return env, nil
}
