package protocol

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"io"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ppstream/internal/obs"
	"ppstream/internal/paillier"
	"ppstream/internal/stream"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire_v1 from the current encoder")

// bytesConn is the net.Conn a TCP edge needs, over memory: reads come from
// a byte slice, writes collect in a buffer.
type bytesConn struct {
	net.Conn
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *bytesConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *bytesConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// encodeFrames returns what a fresh TCP edge writes for msgs — the
// connection preface, then one frame each — ending with a close frame if
// closed is set.
func encodeFrames(t testing.TB, closed bool, msgs ...*stream.Message) []byte {
	t.Helper()
	conn := &bytesConn{}
	e := stream.NewTCPEdge(conn)
	for _, m := range msgs {
		if err := e.Send(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	if closed {
		if err := e.CloseSend(); err != nil {
			t.Fatal(err)
		}
	}
	return conn.out.Bytes()
}

// decodeFrames feeds data to a fresh TCP edge and returns the messages it
// delivers and the error that ended the stream.
func decodeFrames(data []byte) ([]*stream.Message, error) {
	e := stream.NewTCPEdge(&bytesConn{in: bytes.NewReader(data)})
	var msgs []*stream.Message
	for {
		m, err := e.Recv(context.Background())
		if err != nil {
			return msgs, err
		}
		msgs = append(msgs, m)
	}
}

// preface is what every direction of a connection opens with.
var preface = []byte{'P', 'P', 'S', 'W', 0, stream.WireVersion}

func ct(hexDigits string) *paillier.Ciphertext {
	b, err := hex.DecodeString(hexDigits)
	if err != nil {
		panic(err)
	}
	return paillier.ParseCiphertext(b)
}

// goldenFrames is one frame of every kind a session sends, with fixed
// contents.
func goldenFrames() map[string]*stream.Message {
	const trace = "00c0ffee00000001"
	return map[string]*stream.Message{
		"hello":        {Seq: 0, Payload: &Hello{N: []byte{0xC5, 0x3D, 0x01, 0x77}, Factor: 10000, Workers: 2, Profile: "mixed", Exps: []int32{3, 2, 2}, InputMax: 64}},
		"hello_answer": {Seq: 0, Payload: &Hello{Profile: "mixed", Plan: []int32{0, 1, 2}}},
		"round_unpacked": {Seq: 7, Payload: &roundFrame{Round: 0, DeadlineMS: 1500, Trace: trace, Env: &WireEnvelope{
			Req: 7, Cipher: []*paillier.Ciphertext{ct("0102030405"), ct("ff"), ct("a0b0c0d0e0f0")},
		}}},
		"round_packed": {Seq: 7, Payload: &roundFrame{Round: 1, Trace: trace, Env: &WireEnvelope{
			Req: 7, SlotBits: 41, Cipher: []*paillier.Ciphertext{ct("1122334455667788"), ct("99aabbccddeeff")},
		}}},
		"round_ssgc": {Seq: 8, Payload: &roundFrame{Round: 1, Env: &WireEnvelope{
			Req:     8,
			Shares0: []uint64{1, 0xFFFFFFFFFFFFFFFF}, Shares1: []uint64{0x8000000000000000, 2},
		}}},
		"round_clear": {Seq: 9, Payload: &roundFrame{Round: 2, Env: &WireEnvelope{
			Req:   9,
			Plain: []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-1), big.NewInt(-987654321)},
		}}},
		"round_reply": {Seq: 9,
			Payload: &roundFrame{Round: 2, Trace: trace,
				Spans: []obs.Segment{
					{Party: "server", Name: "queue", Round: 2, Dur: 1200},
					{Party: "server", Name: "kernel", Round: 2, Dur: 830000, Backend: "clear", Cost: &obs.CostStats{PlainOps: 640, CipherBytesIn: 96, CipherBytesOut: 40}},
				},
				Env: &WireEnvelope{Req: 9, Plain: []*big.Int{big.NewInt(5), big.NewInt(-6)}},
			}},
		"error": {Seq: 11, Err: &stream.CodedError{Code: CodeShed, Msg: "protocol: request shed"}},
	}
}

// canon replaces the pointers in a decoded message by their values, so
// reflect.DeepEqual compares what was carried and not how a big.Int
// happens to hold zero.
func canon(m *stream.Message) any {
	type envelope struct {
		W             WireEnvelope
		Cipher, Plain []string
	}
	flat := func(w *WireEnvelope) *envelope {
		if w == nil {
			return nil
		}
		e := &envelope{W: *w}
		e.W.Cipher, e.W.Plain = nil, nil
		for _, c := range w.Cipher {
			b := make([]byte, c.ByteLen())
			c.FillBytes(b)
			e.Cipher = append(e.Cipher, hex.EncodeToString(b))
		}
		for _, v := range w.Plain {
			e.Plain = append(e.Plain, v.String())
		}
		return e
	}
	out := struct {
		M     stream.Message
		Frame roundFrame
		Env   *envelope
	}{M: *m}
	out.M.Payload = nil
	switch p := m.Payload.(type) {
	case *roundFrame:
		out.Frame = *p
		out.Frame.Env = nil
		out.Env = flat(p.Env)
	case *WireEnvelope:
		out.Env = flat(p)
	case *Hello:
		h := *p
		if len(h.N) == 0 {
			h.N = nil // a keyless Hello, the server's answer, decodes an empty key
		}
		out.M.Payload = &h
	default:
		out.M.Payload = p
	}
	return out
}

// TestGoldenFrames pins the wire format byte for byte: every kind of frame
// encodes to exactly the committed hex and decodes back to what was sent.
// A deliberate format change bumps stream.WireVersion and regenerates the
// files with -update.
func TestGoldenFrames(t *testing.T) {
	dir := filepath.Join("testdata", "wire_v1")
	check := func(name string, got []byte) {
		t.Helper()
		path := filepath.Join(dir, name+".hex")
		if *updateGolden {
			if err := os.WriteFile(path, []byte(hex.Dump(got)), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if dump := hex.Dump(got); dump != string(want) {
			t.Errorf("%s encodes to\n%swant\n%s", name, dump, want)
		}
	}
	for name, m := range goldenFrames() {
		raw := encodeFrames(t, false, m)
		if !bytes.HasPrefix(raw, preface) {
			t.Fatalf("%s: stream opens with % x, not the preface", name, raw[:len(preface)])
		}
		check(name, raw[len(preface):])
		back, err := decodeFrames(raw)
		if !errors.Is(err, io.EOF) || len(back) != 1 {
			t.Fatalf("%s: decoded %d frames, then %v", name, len(back), err)
		}
		if want, got := canon(m), canon(back[0]); !reflect.DeepEqual(want, got) {
			t.Errorf("%s decodes to\n%+v\nwant\n%+v", name, got, want)
		}
		if again := encodeFrames(t, false, back[0]); !bytes.Equal(again, raw) {
			t.Errorf("%s: re-encoding the decoded frame changes its bytes", name)
		}
	}
	closed := encodeFrames(t, true)
	check("close", closed[len(preface):])
	if msgs, err := decodeFrames(closed); !errors.Is(err, stream.ErrEdgeClosed) || len(msgs) != 0 {
		t.Errorf("close frame decodes to %d messages, then %v", len(msgs), err)
	}
}

// wb builds hostile frames by hand — a second statement of the layout,
// independent of the encoder under test.
type wb struct{ b []byte }

func (w *wb) u8(v uint8) *wb   { w.b = append(w.b, v); return w }
func (w *wb) u16(v uint16) *wb { w.b = binary.BigEndian.AppendUint16(w.b, v); return w }
func (w *wb) u32(v uint32) *wb { w.b = binary.BigEndian.AppendUint32(w.b, v); return w }
func (w *wb) u64(v uint64) *wb { w.b = binary.BigEndian.AppendUint64(w.b, v); return w }
func (w *wb) raw(b ...byte) *wb {
	w.b = append(w.b, b...)
	return w
}
func (w *wb) str(s string) *wb { return w.u32(uint32(len(s))).raw([]byte(s)...) }

// frame wraps body in a frame header.
func frame(flags uint8, tag uint16, bodyLen uint32, body []byte) []byte {
	h := new(wb).u64(1).u32(0).u8(flags).u8(0).u16(tag).u32(bodyLen)
	return append(h.b, body...)
}

// envPrefix is an envelope up to its ciphertext vector: request 1 and the
// slot width.
func envPrefix(slotBits uint32) *wb {
	return new(wb).u64(1).u32(slotBits)
}

// failedStageV3 is a version-3 error frame with the failed-stage section
// version 4 retired: the error text, then the failing stage's name and a
// payload tag, here a Hello's with the Hello after it.
func failedStageV3() []byte {
	hello := new(wb).u32(1).raw(7).u64(1000).u32(1).str("").u32(0).b
	body := new(wb).str("boom").str("linear-0").u16(tagHello).raw(hello...).b
	return frame(2|8, 0, uint32(len(body)), body)
}

// terminalEnvelopeV3 is a version-3 envelope carrying a plaintext result,
// the layout version 4 retired: flag 2, then after the shape a result
// shape and a result count, each value a float64, and empty vectors.
func terminalEnvelopeV3() *wb {
	return new(wb).u64(1).u32(0).u32(0).u32(0).u8(2).u8(0).
		u8(2).u32(1).u32(2).u32(2).u64(0x3fd0000000000000).u64(0xbff8000000000000).
		u16(1).u32(0).u32(0).u32(0).u16(0).u32(0)
}

// envelopeV4 is a version-4 envelope, the layout version 5 retired: after
// the request ID its scale exponent, backend code, slot bits, flags byte
// and shape [1], then one one-byte ciphertext and empty vectors.
func envelopeV4() *wb {
	return new(wb).u64(1).u32(1).u32(0).u32(0).u8(0).u8(1).u32(1).
		u16(1).u32(1).u8(7).u32(0).u32(0).u16(0).u32(0)
}

// frameToSpans is a round frame up to its spans: no envelope, no trace ID.
func frameToSpans() *wb { return new(wb).u32(0).u64(0).u8(0).str("") }

// helloToPlan is a Hello up to its plan: no key, factor 1000, one worker,
// an empty profile.
func helloToPlan() *wb { return new(wb).u32(0).u64(1000).u32(1).str("") }

// TestHostilePeerFields sends one malformed stream per bounded field of the
// format and requires the typed rejection for that field, reached without
// the allocation the field would have sized: nothing a row announces —
// a million ciphertexts, a 64 MB body — costs the receiver more than its
// fixed buffers.
func TestHostilePeerFields(t *testing.T) {
	withPreface := func(frames ...[]byte) []byte {
		return append(append([]byte(nil), preface...), bytes.Join(frames, nil)...)
	}
	env := func(body *wb) []byte {
		return withPreface(frame(0, tagEnvelope, uint32(len(body.b)), body.b))
	}
	round := func(body *wb) []byte {
		return withPreface(frame(0, tagRoundFrame, uint32(len(body.b)), body.b))
	}
	hello := func(body *wb) []byte {
		return withPreface(frame(0, tagHello, uint32(len(body.b)), body.b))
	}
	honest := encodeFrames(t, false, goldenFrames()["round_unpacked"])
	long := strings.Repeat("x", stream.MaxWireString+1)

	rows := []struct {
		name  string
		data  []byte
		field string // WireError.Field, or "" when another typed error is expected
		is    error
	}{
		{name: "unknown version", data: append([]byte{'P', 'P', 'S', 'W', 0, stream.WireVersion + 1}, honest[len(preface):]...), is: stream.ErrWireVersion},
		{name: "gob peer", data: []byte{0x37, 0xff, 0x81, 0x03, 0x01, 0x01, 0x09, 'w', 'i', 'r', 'e', 'F', 'r', 'a', 'm', 'e'}, is: stream.ErrWireVersion},
		{name: "body length", data: withPreface(frame(0, tagEnvelope, stream.MaxFrameBody+1, nil)), field: "body length"},
		{name: "unknown header flag", data: withPreface(frame(0x80, tagEnvelope, 0, nil)), field: "flags"},
		{name: "unknown tag", data: withPreface(frame(0, 999, 4, []byte{1, 2, 3, 4})), field: "payload tag"},
		{name: "truncated body", data: honest[:len(honest)-3], is: io.ErrUnexpectedEOF},
		{name: "trailing bytes", data: func() []byte {
			d := append([]byte(nil), honest...)
			binary.BigEndian.PutUint32(d[len(preface)+16:], binary.BigEndian.Uint32(d[len(preface)+16:])+1)
			return append(d, 0)
		}(), field: "body"},
		{name: "error text", data: withPreface(frame(2, 0, 8, new(wb).u32(stream.MaxWireString+1).raw(0, 0, 0, 0).b)), field: "error text"},
		{name: "string past the body", data: withPreface(frame(2, 0, 8, new(wb).u32(100).raw(0, 0, 0, 0).b)), field: "error text"},
		// Version 3's failed-stage section, alone and after an error: its
		// flag bit is unassigned.
		{name: "failed stage without error", data: withPreface(frame(8, 0, 7, new(wb).str("x").u16(0).b)), field: "flags"},
		{name: "retired failed-stage flag", data: withPreface(failedStageV3()), field: "flags"},
		// Version 1's stage-span trace section: its flag bit is unassigned.
		{name: "stream trace spans", data: withPreface(frame(4, 0, 8, new(wb).str("").u32(1<<20).b)), field: "flags"},
		{name: "hello key bytes", data: withPreface(frame(0, tagHello, 4, new(wb).u32(maxHelloKeyBytes+1).b)), field: "hello key bytes"},
		{name: "slot bits", data: env(envPrefix(maxSlotBits + 1)), field: "slot bits"},
		{name: "element bytes zero", data: env(envPrefix(0).u16(0).u32(1)), field: "ciphertext bytes"},
		{name: "element bytes", data: env(envPrefix(0).u16(stream.MaxWireElement + 1).u32(1)), field: "ciphertext bytes"},
		{name: "ciphertext count", data: env(envPrefix(0).u16(1).u32(maxWireElements + 1)), field: "ciphertext count"},
		{name: "ciphertext count past the body", data: env(envPrefix(0).u16(64).u32(1000).raw(make([]byte, 640)...)), field: "ciphertext count"},
		{name: "share count", data: env(envPrefix(0).u16(1).u32(0).u32(maxWireElements + 1)), field: "share count"},
		{name: "plaintext bytes", data: env(envPrefix(0).u16(1).u32(0).u32(0).u32(0).u16(maxPlainElementBytes).u32(1)), field: "plaintext bytes"},
		{name: "plaintext count", data: env(envPrefix(0).u16(1).u32(0).u32(0).u32(0).u16(1).u32(maxWireElements + 1)), field: "plaintext count"},
		{name: "plaintext sign", data: env(envPrefix(0).u16(1).u32(0).u32(0).u32(0).u16(1).u32(1).raw(7, 1)), field: "plaintext sign"},
		{name: "round frame flags", data: round(new(wb).u32(0).u64(0).u8(0x10)), field: "round frame flags"},
		{name: "trace id string", data: round(new(wb).u32(0).u64(0).u8(0).str(long)), field: "trace id"},
		{name: "profile string", data: hello(new(wb).u32(0).u64(1000).u32(1).str(long)), field: "profile"},
		{name: "plan length", data: hello(helloToPlan().u32(maxWirePlan + 1)), field: "plan length"},
		{name: "plan past the body", data: hello(helloToPlan().u32(maxWirePlan).u32(0)), field: "plan length"},
		{name: "exponents length", data: hello(helloToPlan().u32(0).u32(maxWirePlan + 1)), field: "exponents length"},
		{name: "span count", data: round(frameToSpans().u32(maxWireSpans + 1)), field: "span count"},
		{name: "spans past the body", data: round(frameToSpans().u32(maxWireSpans).raw(make([]byte, 100)...)), field: "span count"},
		{name: "span cost marker", data: round(frameToSpans().u32(1).str("p").str("n").str("").u32(0).u64(0).u8(9)), field: "span cost marker"},
		{name: "span duration", data: round(frameToSpans().u32(1).str("p").str("n").str("").u32(0).u64(^uint64(0)).u8(0)), field: "span duration"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			msgs, err := decodeFrames(row.data)
			runtime.ReadMemStats(&after)
			if len(msgs) != 0 {
				t.Fatalf("delivered %d messages", len(msgs))
			}
			var werr *stream.WireError
			switch {
			case row.is != nil:
				if !errors.Is(err, row.is) {
					t.Fatalf("got %v, want %v", err, row.is)
				}
			case !errors.As(err, &werr):
				t.Fatalf("got %v, want a *stream.WireError for %q", err, row.field)
			case werr.Field != row.field:
				t.Fatalf("rejected for %q (%v), want %q", werr.Field, err, row.field)
			}
			// The edge's read buffer, the message and one vector's first
			// chunk at most — never what the row announced.
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Fatalf("rejection allocated %d bytes", got)
			}
		})
	}
}

// TestEdgeRejectsUnencodable: what cannot be framed fails in Send, before
// a byte is written, and leaves the edge usable.
func TestEdgeRejectsUnencodable(t *testing.T) {
	conn := &bytesConn{}
	e := stream.NewTCPEdge(conn)
	ctx := context.Background()
	wide := paillier.ParseCiphertext(append([]byte{1}, make([]byte, stream.MaxWireElement)...))
	for name, m := range map[string]*stream.Message{
		"foreign payload": {Payload: 42},
		"long string":     {Payload: &Hello{Profile: strings.Repeat("p", stream.MaxWireString+1)}},
		"wide element":    {Payload: &WireEnvelope{Cipher: []*paillier.Ciphertext{wide}}},
	} {
		if err := e.Send(ctx, m); err == nil {
			t.Errorf("%s: sent", name)
		}
	}
	if conn.out.Len() != 0 {
		t.Fatalf("refused frames left %d bytes on the connection", conn.out.Len())
	}
	if err := e.Send(ctx, goldenFrames()["hello"]); err != nil {
		t.Fatalf("edge unusable after refusals: %v", err)
	}
}
