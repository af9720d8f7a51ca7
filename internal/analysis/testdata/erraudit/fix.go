// Package wire is a pplint fixture for the erraudit analyzer: discarded
// errors from the wire writer's destinations (io.Writer and net.Conn
// writes) and from crypto/rand reads, next to their checked forms.
package wire

import (
	"bytes"
	crand "crypto/rand"
	"io"
	"net"
)

// Broken drops every audited error.
func Broken(conn net.Conn, w io.Writer, p []byte) {
	w.Write(p)    // want "unchecked error from io.Writer.Write"
	conn.Write(p) // want "unchecked error from net.Conn.Write"
	var b [8]byte
	crand.Read(b[:]) // want "unchecked error from rand.Read"
}

// BrokenAsync drops errors behind go and defer, where they are even
// harder to observe.
func BrokenAsync(conn net.Conn, w io.Writer, p []byte) {
	go w.Write(p)       // want "unchecked error from io.Writer.Write"
	defer conn.Write(p) // want "unchecked error from net.Conn.Write"
}

// Checked handles every audited error, and writes into a buffer, which
// cannot fail, unchecked: clean.
func Checked(conn net.Conn, w io.Writer, p []byte) error {
	var buf bytes.Buffer
	buf.Write(p)
	if _, err := w.Write(buf.Bytes()); err != nil {
		return err
	}
	if _, err := conn.Write(p); err != nil {
		return err
	}
	var b [8]byte
	_, err := crand.Read(b[:])
	return err
}

// ExplicitDiscard uses a visible `_, _ =` decision: not flagged (the
// discard is auditable in review).
func ExplicitDiscard(w io.Writer, p []byte) {
	_, _ = w.Write(p)
}
