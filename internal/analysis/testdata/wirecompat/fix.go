// Package protocol is a pplint fixture for the wirecompat analyzer:
// the committed fixture lock (wire.lock in this directory) records
// Factor as int64 and two fields that no longer exist.
package protocol

// Hello mirrors the protocol handshake frame. Factor was retyped from
// int64 (as locked) to int32, and the locked field Gone was deleted.
// Profile and Plan mirror the backend-negotiation evolution: both are
// ADDITIVE fields absent from the fixture lock, which the analyzer must
// accept silently — gob decodes frames lacking them to zero values, so
// old peers keep interoperating.
type Hello struct {
	N       []byte
	Factor  int32
	Workers int
	Profile string
	Plan    []int32
	hidden  int // unexported: gob never encodes it, so it is not locked
}

var _ = Hello{hidden: 0}

// WireVersion is the fixture's wire-format version; the fixture lock
// records the same value, so Frame below changed without it.
const WireVersion = 3

// Frame mirrors a frame of the versioned binary format. Against the
// fixture lock, Seq was retyped (uint32 → uint64), Flags was removed and
// Added was added — each a diagnostic while WireVersion is still 3, and
// none once the lock records another version.
type Frame struct {
	Seq   uint64
	Added int
}
