package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// Wire format v1: what a TCP edge writes to its connection. Each direction
// opens with a six-byte preface (magic, version) and then carries frames: a
// fixed 20-byte header followed by a body of the length the header
// announces. All integers are big-endian. DESIGN.md ("Wire format v1") has
// the byte layout and the limits table; internal/protocol/wire.lock locks
// WireVersion together with the field sets of every frame struct.

// WireVersion is the format's version, sent in the preface. A peer that
// opens with any other version (or with no preface at all, as a gob peer
// would) is refused with ErrWireVersion. Bump it whenever a frame struct's
// field set or encoding changes; there is no negotiation and no fallback.
const WireVersion = 1

const (
	wireMagic  = "PPSW"
	prefaceLen = len(wireMagic) + 2
	headerLen  = 20

	// MaxFrameBody bounds the body length a header may announce. Nothing
	// is allocated from the announcement itself — every vector grows with
	// the bytes that actually arrive — so the bound only has to admit the
	// largest honest frame (a 3072-element input at a 4096-bit key is 3 MB).
	MaxFrameBody = 64 << 20
	// MaxWireString bounds every length-prefixed string: error texts,
	// stage names, trace IDs, profile names.
	MaxWireString = 4096
	// MaxWireElement is the widest fixed-width element (one ciphertext, one
	// sign-magnitude integer) and the size of the per-edge buffers those
	// elements pass through: n² of a 16384-bit key.
	MaxWireElement = 4096
	// WireChunk is how many vector elements ReadVec allocates ahead of the
	// bytes that back them: an announced count sizes at most this much
	// before data has arrived to justify more.
	WireChunk = 1024
	// maxTraceSpans bounds the stage spans of one stream.Trace.
	maxTraceSpans = 256
)

const (
	flagClose  = 1 << iota // end of stream; no body
	flagErr                // body carries Message.Err
	flagTrace              // body carries Message.Trace
	flagFailed             // body carries FailedStage and FailedPayload
	flagsKnown = flagClose | flagErr | flagTrace | flagFailed
)

// ErrWireVersion is returned by Recv when the peer did not open with the
// preface of this WireVersion.
var ErrWireVersion = errors.New("stream: unsupported wire version")

// WireError reports bytes a peer sent that the format does not allow: a
// length or count over its limit or over the bytes left in the frame, an
// unknown tag or flag, bytes left over after the payload. It is raised
// before the allocation the offending field would have sized.
type WireError struct {
	Field string // what was being read, e.g. "body length", "ciphertext count"
	Msg   string
}

func (e *WireError) Error() string { return "stream: wire " + e.Field + ": " + e.Msg }

// WirePayload is a Message payload that can cross a TCP edge: it names its
// registered tag and writes its own body. EncodeWire runs twice per frame
// — once against a sizing writer to learn the body length the header
// announces, once for real — so it must be deterministic and read-only.
type WirePayload interface {
	WireTag() uint16
	EncodeWire(w *WireWriter)
}

var (
	wireTypesMu sync.RWMutex
	wireTypes   = map[uint16]func(*WireReader) any{}
)

// RegisterWireType registers the decoder for a payload tag (non-zero; zero
// on the wire means "no payload"). The decoder reads exactly what the
// type's EncodeWire wrote and reports failures through r.Fail. Call once
// per payload type before dialing or listening; registering a tag again
// replaces its decoder.
func RegisterWireType(tag uint16, decode func(r *WireReader) any) {
	if tag == 0 || decode == nil {
		panic("stream: RegisterWireType needs a non-zero tag and a decoder")
	}
	wireTypesMu.Lock()
	wireTypes[tag] = decode
	wireTypesMu.Unlock()
}

// WireWriter encodes one direction of a TCP edge through a fixed buffer of
// MaxWireElement bytes, flushing to the connection whenever the next field
// does not fit. The zero value is a sizing writer: it writes nothing and
// only counts. Errors are sticky; after one every method is a no-op.
type WireWriter struct {
	out  io.Writer
	buf  []byte
	used int
	n    int // bytes encoded since the frame began
	err  error
}

// Fail records err as the writer's error unless one is already set.
func (w *WireWriter) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Next reserves n ≤ MaxWireElement bytes of the frame and returns them for
// the caller to fill in place before its next call on w. It returns nil
// from a sizing writer and after an error.
func (w *WireWriter) Next(n int) []byte {
	if n < 0 || n > MaxWireElement {
		w.Fail(fmt.Errorf("stream: wire element of %d bytes, limit %d", n, MaxWireElement))
		return nil
	}
	w.n += n
	if w.buf == nil || w.err != nil {
		return nil
	}
	if len(w.buf)-w.used < n {
		w.flush()
		if w.err != nil {
			return nil
		}
	}
	b := w.buf[w.used : w.used+n]
	w.used += n
	return b
}

func (w *WireWriter) flush() {
	if w.err == nil && w.used > 0 {
		_, w.err = w.out.Write(w.buf[:w.used])
	}
	w.used = 0
}

func (w *WireWriter) U8(v uint8) {
	if b := w.Next(1); b != nil {
		b[0] = v
	}
}

func (w *WireWriter) U16(v uint16) {
	if b := w.Next(2); b != nil {
		binary.BigEndian.PutUint16(b, v)
	}
}

func (w *WireWriter) U32(v uint32) {
	if b := w.Next(4); b != nil {
		binary.BigEndian.PutUint32(b, v)
	}
}

func (w *WireWriter) U64(v uint64) {
	if b := w.Next(8); b != nil {
		binary.BigEndian.PutUint64(b, v)
	}
}

// I32 writes v as a 32-bit two's-complement integer, failing if it does
// not fit.
func (w *WireWriter) I32(v int) {
	if v < math.MinInt32 || v > math.MaxInt32 {
		w.Fail(fmt.Errorf("stream: wire integer %d does not fit 32 bits", v))
	}
	w.U32(uint32(int32(v)))
}

func (w *WireWriter) I64(v int64) { w.U64(uint64(v)) }

// Len writes a count or length as 32 bits.
func (w *WireWriter) Len(n int) {
	if n < 0 || uint64(n) > math.MaxUint32 {
		w.Fail(fmt.Errorf("stream: wire length %d does not fit 32 bits", n))
	}
	w.U32(uint32(n))
}

// Bytes writes a 32-bit length and then b.
func (w *WireWriter) Bytes(b []byte) {
	w.Len(len(b))
	for len(b) > 0 {
		k := min(len(b), MaxWireElement)
		if dst := w.Next(k); dst != nil {
			copy(dst, b[:k])
		}
		b = b[k:]
	}
}

// String writes a string of at most MaxWireString bytes.
func (w *WireWriter) String(s string) {
	if len(s) > MaxWireString {
		w.Fail(fmt.Errorf("stream: wire string of %d bytes, limit %d", len(s), MaxWireString))
		return
	}
	w.Len(len(s))
	if dst := w.Next(len(s)); dst != nil {
		copy(dst, s)
	}
}

// WireReader decodes the body of one frame at a time through a fixed
// MaxWireElement-byte buffer. It never reads past the body length the
// header announced, and every length it hands out has been checked against
// a limit and against the bytes left in the body. Errors are sticky; after
// one every method returns its zero value, so a decoder can read a whole
// struct and check Err once.
type WireReader struct {
	br   *bufio.Reader
	left int // body bytes not yet consumed
	err  error
}

// Fail records err as the reader's error unless one is already set.
func (r *WireReader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Reject fails the reader with a WireError for field.
func (r *WireReader) Reject(field, format string, args ...any) {
	r.Fail(&WireError{Field: field, Msg: fmt.Sprintf(format, args...)})
}

// Err returns the first error the reader met.
func (r *WireReader) Err() error { return r.err }

// Next consumes n ≤ MaxWireElement body bytes and returns them; the slice
// is valid until the next call on r. It returns nil after an error.
func (r *WireReader) Next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > MaxWireElement {
		r.Reject("element bytes", "%d, limit %d", n, MaxWireElement)
		return nil
	}
	if n > r.left {
		r.Reject("body", "a %d-byte field overruns the %d bytes left in the frame", n, r.left)
		return nil
	}
	b, err := r.br.Peek(n)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.Fail(err)
		return nil
	}
	r.left -= n
	_, _ = r.br.Discard(n) // cannot fail: the n bytes were just peeked
	return b
}

func (r *WireReader) U8() uint8 {
	if b := r.Next(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *WireReader) U16() uint16 {
	if b := r.Next(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *WireReader) U32() uint32 {
	if b := r.Next(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *WireReader) U64() uint64 {
	if b := r.Next(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *WireReader) I32() int   { return int(int32(r.U32())) }
func (r *WireReader) I64() int64 { return int64(r.U64()) }

// Len reads a 32-bit count of elements of elemBytes each and returns it
// only if it is at most max and the elements fit in what is left of the
// body; otherwise the reader fails with a WireError naming field, and the
// caller, handed zero, allocates nothing.
func (r *WireReader) Len(field string, max, elemBytes int) int {
	n := uint64(r.U32())
	if r.err != nil {
		return 0
	}
	if n > uint64(max) {
		r.Reject(field, "%d, limit %d", n, max)
		return 0
	}
	if n*uint64(elemBytes) > uint64(r.left) {
		r.Reject(field, "%d × %d bytes overruns the %d bytes left in the frame", n, elemBytes, r.left)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string of at most max bytes. The
// result grows with the bytes that arrive, a buffer-full at a time, so an
// announced length allocates nothing the peer has not paid for in bytes.
func (r *WireReader) Bytes(field string, max int) []byte {
	n := r.Len(field, max, 1)
	out := make([]byte, 0, min(n, MaxWireElement))
	for len(out) < n {
		b := r.Next(min(n-len(out), MaxWireElement))
		if b == nil {
			return nil
		}
		out = append(out, b...)
	}
	return out
}

// ReadVec reads a count of at most max and then that many elements, each
// at least elemBytes on the wire, by calling elem. The count is checked
// against max and against the bytes left in the frame before it sizes
// anything, and then sizes at most WireChunk elements: the vector grows as
// its bytes arrive, not when its count does. It returns nil for a count of
// zero.
func ReadVec[T any](r *WireReader, field string, max, elemBytes int, elem func() T) []T {
	n := r.Len(field, max, elemBytes)
	if n == 0 {
		return nil
	}
	out := make([]T, 0, min(n, WireChunk))
	for len(out) < n && r.err == nil {
		out = append(out, elem())
	}
	return out
}

// String reads a string of at most MaxWireString bytes.
func (r *WireReader) String(field string) string {
	return string(r.Next(r.Len(field, MaxWireString, 1)))
}

// encodeWire writes the trace: ID, then each span's stage and durations.
func (t *Trace) encodeWire(w *WireWriter) {
	w.String(t.ID)
	w.Len(len(t.Spans))
	for _, s := range t.Spans {
		w.String(s.Stage)
		w.I64(int64(s.Wait))
		w.I64(int64(s.Busy))
	}
}

func decodeTrace(r *WireReader) *Trace {
	t := &Trace{ID: r.String("trace id")}
	// A span is at least its stage's length prefix and two durations.
	t.Spans = ReadVec(r, "trace spans", maxTraceSpans, 4+8+8, func() Span {
		return Span{Stage: r.String("span stage"), Wait: time.Duration(r.I64()), Busy: time.Duration(r.I64())}
	})
	return t
}

// payloadTag returns the wire tag of a message payload: zero for none.
func payloadTag(w *WireWriter, payload any) uint16 {
	switch p := payload.(type) {
	case nil:
		return 0
	case WirePayload:
		return p.WireTag()
	default:
		w.Fail(fmt.Errorf("stream: payload type %T does not implement WirePayload", payload))
		return 0
	}
}

// encodeBody writes the body of m's frame — the optional sections in flag
// order, then the payload — and returns the header flags and payload tag
// that describe it. An Err longer than MaxWireString is cut: an error text
// must not be what makes reporting the error fail.
func encodeBody(w *WireWriter, m *Message) (flags uint8, tag uint16) {
	if m.Err != "" {
		flags |= flagErr
		w.String(m.Err[:min(len(m.Err), MaxWireString)])
	}
	if m.Trace != nil {
		flags |= flagTrace
		m.Trace.encodeWire(w)
	}
	if m.FailedStage != "" || m.FailedPayload != nil {
		flags |= flagFailed
		w.String(m.FailedStage)
		w.U16(payloadTag(w, m.FailedPayload))
		if p, ok := m.FailedPayload.(WirePayload); ok {
			p.EncodeWire(w)
		}
	}
	tag = payloadTag(w, m.Payload)
	if p, ok := m.Payload.(WirePayload); ok {
		p.EncodeWire(w)
	}
	return flags, tag
}

// encodeHeader writes a frame header.
func encodeHeader(w *WireWriter, seq uint64, errCode int, flags uint8, tag uint16, bodyLen int) {
	w.U64(seq)
	w.I32(errCode)
	w.U8(flags)
	w.U8(0) // reserved
	w.U16(tag)
	w.U32(uint32(bodyLen))
}

// decodePayload runs the decoder registered for tag over the reader.
func decodePayload(r *WireReader, tag uint16) any {
	if tag == 0 || r.err != nil {
		return nil
	}
	wireTypesMu.RLock()
	decode := wireTypes[tag]
	wireTypesMu.RUnlock()
	if decode == nil {
		r.Reject("payload tag", "%d is not registered", tag)
		return nil
	}
	return decode(r)
}

// readPreface consumes and checks the peer's connection preface.
func readPreface(br *bufio.Reader) error {
	var pre [prefaceLen]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return err
	}
	if string(pre[:len(wireMagic)]) != wireMagic {
		return fmt.Errorf("%w: peer opened with % x, not the %q preface", ErrWireVersion, pre, wireMagic)
	}
	if v := binary.BigEndian.Uint16(pre[len(wireMagic):]); v != WireVersion {
		return fmt.Errorf("%w: peer speaks version %d, this side %d", ErrWireVersion, v, WireVersion)
	}
	return nil
}

// readFrame reads one frame: the message it carries, or ErrEdgeClosed for
// a close frame.
func readFrame(r *WireReader) (*Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return nil, err
	}
	m := &Message{
		Seq:     binary.BigEndian.Uint64(hdr[0:]),
		ErrCode: int(int32(binary.BigEndian.Uint32(hdr[8:]))),
	}
	flags, reserved := hdr[12], hdr[13]
	tag := binary.BigEndian.Uint16(hdr[14:])
	bodyLen := binary.BigEndian.Uint32(hdr[16:])
	if flags&^flagsKnown != 0 || reserved != 0 {
		return nil, &WireError{Field: "flags", Msg: fmt.Sprintf("unknown bits in %08b %08b", flags, reserved)}
	}
	if bodyLen > MaxFrameBody {
		return nil, &WireError{Field: "body length", Msg: fmt.Sprintf("%d, limit %d", bodyLen, MaxFrameBody)}
	}
	if flags&flagClose != 0 {
		if flags != flagClose || tag != 0 || bodyLen != 0 {
			return nil, &WireError{Field: "flags", Msg: "close frame carries a body"}
		}
		return nil, ErrEdgeClosed
	}
	r.left, r.err = int(bodyLen), nil
	if flags&flagErr != 0 {
		m.Err = r.String("error text")
	}
	if flags&flagTrace != 0 {
		m.Trace = decodeTrace(r)
	}
	if flags&flagFailed != 0 {
		m.FailedStage = r.String("failed stage")
		m.FailedPayload = decodePayload(r, r.U16())
	}
	m.Payload = decodePayload(r, tag)
	if r.err == nil && r.left != 0 {
		r.Reject("body", "%d bytes left over after the payload", r.left)
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}
