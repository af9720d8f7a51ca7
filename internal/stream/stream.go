// Package stream is PP-Stream's transport layer, standing in for the
// AF-Stream system the paper's prototype builds on: the Edges that carry
// Messages between the two parties, the binary wire format those
// messages cross a connection in, and fault injection beneath that format.
//
// Inside one process an edge is a bounded channel (NewChannelEdge); the
// TCP edge carries frames of the wire format at WireVersion (wire.go)
// between servers; the chaos connection (chaos.go) delays and resets the
// bytes under a TCP edge. The staged runtime — a bounded queue and one
// goroutine per linear round — is the protocol session's, and core.Engine
// is that session over a pair of in-process edges.
package stream

import "time"

// Message is one unit crossing an edge: an inference request's round
// frame (or its reply) tagged with the request's sequence number.
type Message struct {
	// Seq identifies the request; a reply carries its frame's.
	Seq uint64
	// Payload is the frame's data. To cross a TCP edge it must
	// implement WirePayload, its tag registered with RegisterWireType.
	Payload any
	// Err carries the request's failure to its peer, which knows from
	// Seq which request and round it answers. Across a TCP edge Err
	// travels as its text and its wire code (see CodedError), and
	// arrives as an error that still matches the sender's coded
	// sentinels with errors.Is.
	Err error
}

// Span records one stage's handling of a request: the time it waited in
// the stage's input queue and the handler's execution time. Together
// the spans of a completed request are the per-stage latency breakdown
// the paper's Tables IV/V report.
type Span struct {
	Stage string
	Wait  time.Duration
	Busy  time.Duration
}

// Trace is the per-request record of stage spans, as core.Engine.Submit
// returns it.
type Trace struct {
	// ID is the request's distributed-tracing identifier (see
	// obs.TraceTree).
	ID    string
	Spans []Span
}
