package stream

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"ppstream/internal/obs"
)

// ErrEdgeClosed is returned by Recv once the sender has closed the edge
// and all buffered messages are drained.
var ErrEdgeClosed = errors.New("stream: edge closed")

// Edge is a one-directional message link between stages. In-process edges
// are channels; TCP edges carry wire-format frames between servers.
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

// tcpEdge carries messages over a TCP connection in wire format v1 (see
// wire.go). Payloads must implement WirePayload and have their tag
// registered (RegisterWireType). Each direction's state — the fixed buffer
// and, on the sending side, the preface — is set up by that direction's
// first frame, so an edge used one way pays for one way.
type tcpEdge struct {
	conn net.Conn

	sendMu  sync.Mutex
	w       *WireWriter
	sendErr error // sticky: a frame that failed part-way leaves the stream unframed

	r       *WireReader
	recvErr error // sticky, for the same reason

	closeOnce sync.Once
	closeErr  error

	// Optional obs instrumentation (see NewInstrumentedTCPEdge).
	framesSent *obs.Counter
	framesRecv *obs.Counter
}

// NewTCPEdge wraps an established connection as an Edge. The caller is
// responsible for pairing one sender and one receiver per connection.
func NewTCPEdge(conn net.Conn) Edge {
	return &tcpEdge{conn: conn}
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
// the preface and every frame including close frames; frame counts cover
// messages.
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
	// Sizing pass, outside the lock: the header announces the body length,
	// and whatever cannot be encoded fails here, before a byte is written.
	var size WireWriter
	flags, tag := encodeBody(&size, m)
	if size.err == nil && size.n > MaxFrameBody {
		size.err = &WireError{Field: "body length", Msg: fmt.Sprintf("%d, limit %d", size.n, MaxFrameBody)}
	}
	if size.err != nil {
		return fmt.Errorf("stream: tcp send: %w", size.err)
	}
	if err := e.writeFrame(m, flags, tag, size.n); err != nil {
		return err
	}
	if e.framesSent != nil {
		e.framesSent.Inc()
	}
	return nil
}

// writeFrame streams m's frame, whose header the sizing pass worked out,
// through the edge's fixed buffer, behind the connection preface if it is
// the first.
func (e *tcpEdge) writeFrame(m *Message, flags uint8, tag uint16, bodyLen int) error {
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	if e.sendErr != nil {
		return e.sendErr
	}
	if e.w == nil {
		e.w = &WireWriter{out: e.conn, buf: make([]byte, MaxWireElement)}
		copy(e.w.Next(len(wireMagic)), wireMagic)
		e.w.U16(WireVersion)
	}
	w := e.w
	w.n = 0
	encodeHeader(w, m.Seq, m.ErrCode, flags, tag, bodyLen)
	encodeBody(w, m)
	if w.n != headerLen+bodyLen {
		w.Fail(fmt.Errorf("payload %T encoded %d bytes after announcing %d", m.Payload, w.n-headerLen, bodyLen))
	}
	if w.err == nil {
		//pplint:ignore lockscope sendMu exists to keep concurrent senders' frames from interleaving, and a frame streams through one fixed buffer instead of being assembled first, so the lock spans its writes (this one and Next's when the buffer fills); no other lock nests under it
		_, w.err = e.conn.Write(w.buf[:w.used])
	}
	w.used = 0
	if w.err != nil {
		e.sendErr = fmt.Errorf("stream: tcp send: %w", w.err)
	}
	return e.sendErr
}

func (e *tcpEdge) Recv(ctx context.Context) (*Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.recvErr != nil {
		return nil, e.recvErr
	}
	m, err := e.recv()
	if err != nil {
		if !errors.Is(err, ErrEdgeClosed) {
			err = fmt.Errorf("stream: tcp recv: %w", err)
		}
		e.recvErr = err
		return nil, err
	}
	if e.framesRecv != nil {
		e.framesRecv.Inc()
	}
	return m, nil
}

func (e *tcpEdge) recv() (*Message, error) {
	if e.r == nil {
		br := bufio.NewReaderSize(e.conn, MaxWireElement)
		if err := readPreface(br); err != nil {
			return nil, err
		}
		e.r = &WireReader{br: br}
	}
	return readFrame(e.r)
}

func (e *tcpEdge) CloseSend() error {
	e.closeOnce.Do(func() { e.closeErr = e.writeFrame(&Message{}, flagClose, 0, 0) })
	return e.closeErr
}
