package stream

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"unsafe"

	"ppstream/internal/obs"
)

// ErrEdgeClosed is returned by Recv once the sender has closed the edge
// and all buffered messages are drained.
var ErrEdgeClosed = errors.New("stream: edge closed")

// Edge is a one-directional message link between stages. In-process edges
// are channels; TCP edges carry gob frames between servers.
type Edge interface {
	// Send delivers a message, blocking while the edge is full.
	Send(ctx context.Context, m *Message) error
	// Recv returns the next message, blocking until one arrives, the
	// sender closes (ErrEdgeClosed), or ctx is cancelled.
	Recv(ctx context.Context) (*Message, error)
	// CloseSend signals end-of-stream to the receiver. Idempotent.
	CloseSend() error
}

// channelEdge is the in-process edge: a bounded channel.
type channelEdge struct {
	ch        chan *Message
	closeOnce sync.Once
}

// NewChannelEdge creates an in-process edge with the given buffer depth
// (minimum 1). The bound provides back-pressure between pipeline stages.
func NewChannelEdge(buffer int) Edge {
	if buffer < 1 {
		buffer = 1
	}
	return &channelEdge{ch: make(chan *Message, buffer)}
}

func (e *channelEdge) Send(ctx context.Context, m *Message) error {
	select {
	case e.ch <- m:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *channelEdge) Recv(ctx context.Context) (*Message, error) {
	select {
	case m, ok := <-e.ch:
		if !ok {
			return nil, ErrEdgeClosed
		}
		return m, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (e *channelEdge) CloseSend() error {
	e.closeOnce.Do(func() { close(e.ch) })
	return nil
}

// depthReporter is the optional interface edges implement to expose
// their queue occupancy for gauges (see Pipeline.Instrument).
type depthReporter interface {
	// Depth returns the current queued message count and the capacity.
	Depth() (int, int)
}

// Depth reports the channel edge's occupancy and capacity.
func (e *channelEdge) Depth() (int, int) { return len(e.ch), cap(e.ch) }

// wireFrame is the gob envelope for TCP edges. Close frames carry no
// payload. The trace rides along so distributed pipelines keep the
// per-stage breakdown, and failure metadata (FailedStage/FailedPayload)
// survives the hop so a downstream submitter can diagnose errors raised
// on the remote side. New fields are gob-compatible in both directions:
// older peers ignore them and leave them zero.
type wireFrame struct {
	Seq           uint64
	Err           string
	ErrCode       int
	Close         bool
	Payload       any
	Trace         *Trace
	FailedStage   string
	FailedPayload any
}

// tcpEdge carries messages over a TCP connection using gob encoding.
// Payload concrete types must be registered with gob (RegisterWireType).
type tcpEdge struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder

	sendMu    sync.Mutex
	closeOnce sync.Once
	closeErr  error

	// Optional obs instrumentation (see NewInstrumentedTCPEdge).
	framesSent *obs.Counter
	framesRecv *obs.Counter
}

// gobFreeList is where a gob.Encoder keeps its list of recycled
// encoderStates, found by name once; ok is false if a future encoding/gob
// lays the Encoder out differently, and then forgetEncoderStates does
// nothing.
var gobFreeList, gobFreeListOK = func() (uintptr, bool) {
	f, ok := reflect.TypeOf((*gob.Encoder)(nil)).Elem().FieldByName("freeList")
	return f.Offset, ok && f.Type.Kind() == reflect.Pointer
}()

// forgetEncoderStates empties enc's list of recycled encoderStates. gob
// encodes an interface payload into a buffer borrowed from a package-wide
// sync.Pool, and a recycled encoderState keeps pointing at the last
// buffer it wrote to. A frame's payload grows that buffer to the frame's
// size (128 KB for MNIST's 784 input ciphertexts), and if the next frame
// goes out before two collections have emptied the pool it borrows the
// same buffer again — so on a connection whose peers produce little
// garbage the largest frame's buffer stays reachable from the Encoder for
// as long as the connection lives, long after the pool has let go of it.
// Dropping the list costs a handful of small allocations per frame.
func forgetEncoderStates(enc *gob.Encoder) {
	if gobFreeListOK {
		*(*unsafe.Pointer)(unsafe.Add(unsafe.Pointer(enc), gobFreeList)) = nil
	}
}

// RegisterWireType registers a payload type for TCP transport. Call once
// per concrete payload type before dialing/listening.
func RegisterWireType(v any) { gob.Register(v) }

// NewTCPEdge wraps an established connection as an Edge. The caller is
// responsible for pairing one sender and one receiver per connection.
func NewTCPEdge(conn net.Conn) Edge {
	return &tcpEdge{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
}

// countingConn wraps a net.Conn, publishing transferred byte counts.
type countingConn struct {
	net.Conn
	sent, recv *obs.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.recv.Add(uint64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.sent.Add(uint64(n))
	}
	return n, err
}

// NewInstrumentedTCPEdge wraps conn as a TCP edge that publishes wire
// counters to reg: "<prefix>.bytes_sent", "<prefix>.bytes_recv",
// "<prefix>.frames_sent", and "<prefix>.frames_recv". Byte counts cover
// the gob stream including close frames; frame counts cover messages.
// Multiple edges may share a prefix to aggregate (e.g. all sessions of
// one server under "tcp").
func NewInstrumentedTCPEdge(conn net.Conn, reg *obs.Registry, prefix string) Edge {
	if reg == nil {
		return NewTCPEdge(conn)
	}
	cc := &countingConn{
		Conn: conn,
		sent: reg.Counter(prefix + ".bytes_sent"),
		recv: reg.Counter(prefix + ".bytes_recv"),
	}
	e := NewTCPEdge(cc).(*tcpEdge)
	e.framesSent = reg.Counter(prefix + ".frames_sent")
	e.framesRecv = reg.Counter(prefix + ".frames_recv")
	return e
}

// DialEdge connects to a listening edge.
func DialEdge(addr string) (Edge, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: dialing %s: %w", addr, err)
	}
	return NewTCPEdge(conn), nil
}

// ListenEdge accepts exactly one connection on addr and wraps it as an
// Edge. It returns the bound address (useful with ":0") via the returned
// listener-address string.
func ListenEdge(addr string) (Edge, string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("stream: listening on %s: %w", addr, err)
	}
	ch := make(chan acceptResult, 1)
	go func() {
		conn, err := l.Accept()
		l.Close()
		if err != nil {
			ch <- acceptResult{nil, err}
			return
		}
		ch <- acceptResult{NewTCPEdge(conn), nil}
	}()
	return &pendingEdge{ch: ch}, l.Addr().String(), nil
}

type acceptResult struct {
	edge Edge
	err  error
}

// pendingEdge defers to the accepted TCP edge once the peer connects.
type pendingEdge struct {
	ch   chan acceptResult
	once sync.Once
	edge Edge
	err  error
}

// resolve waits for the accept result exactly once. sync.Once (rather
// than a mutex held across the channel receive) means concurrent
// resolvers park on the Once's internal gate, not on a lock that would
// couple every later Send/Recv to the accept latency; the Once also
// publishes edge/err with a happens-before edge for every caller.
func (p *pendingEdge) resolve() (Edge, error) {
	p.once.Do(func() {
		r := <-p.ch
		p.edge, p.err = r.edge, r.err
	})
	return p.edge, p.err
}

func (p *pendingEdge) Send(ctx context.Context, m *Message) error {
	e, err := p.resolve()
	if err != nil {
		return err
	}
	return e.Send(ctx, m)
}

func (p *pendingEdge) Recv(ctx context.Context) (*Message, error) {
	e, err := p.resolve()
	if err != nil {
		return nil, err
	}
	return e.Recv(ctx)
}

func (p *pendingEdge) CloseSend() error {
	e, err := p.resolve()
	if err != nil {
		return err
	}
	return e.CloseSend()
}

func (e *tcpEdge) Send(ctx context.Context, m *Message) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	frame := wireFrame{
		Seq: m.Seq, Err: m.Err, ErrCode: m.ErrCode, Payload: m.Payload, Trace: m.Trace,
		FailedStage: m.FailedStage, FailedPayload: m.FailedPayload,
	}
	//pplint:ignore lockscope sendMu exists precisely to serialize whole gob frames onto the shared encoder; holding it across exactly one Encode is the framing invariant, and no other lock nests under it
	if err := e.enc.Encode(&frame); err != nil {
		return fmt.Errorf("stream: tcp send: %w", err)
	}
	forgetEncoderStates(e.enc)
	if e.framesSent != nil {
		e.framesSent.Inc()
	}
	return nil
}

func (e *tcpEdge) Recv(ctx context.Context) (*Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var frame wireFrame
	if err := e.dec.Decode(&frame); err != nil {
		return nil, fmt.Errorf("stream: tcp recv: %w", err)
	}
	if frame.Close {
		return nil, ErrEdgeClosed
	}
	if e.framesRecv != nil {
		e.framesRecv.Inc()
	}
	return &Message{
		Seq: frame.Seq, Err: frame.Err, ErrCode: frame.ErrCode, Payload: frame.Payload, Trace: frame.Trace,
		FailedStage: frame.FailedStage, FailedPayload: frame.FailedPayload,
	}, nil
}

func (e *tcpEdge) CloseSend() error {
	e.closeOnce.Do(func() {
		e.sendMu.Lock()
		defer e.sendMu.Unlock()
		//pplint:ignore lockscope the close frame rides the same one-frame-per-sendMu-hold invariant as Send; see above
		if err := e.enc.Encode(&wireFrame{Close: true}); err != nil {
			e.closeErr = err
		}
	})
	return e.closeErr
}
