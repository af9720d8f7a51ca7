package protocol

import (
	"errors"
	"fmt"

	"ppstream/internal/stream"
)

// Error codes classify error frames on the wire so a client can tell a
// retryable rejection (throttle, shed) from a fatal protocol error
// without parsing message text. A code rides in the fixed header of the
// error frame (see stream.CodedError).
const (
	// CodeNone marks an unclassified error.
	CodeNone = 0
	// CodeThrottled: the admission gate's rate window refused the request,
	// before its first round ran. Retryable after backoff.
	CodeThrottled = 1
	// CodeShed: admission control rejected the request's first round
	// because the server is overloaded. Retryable after backoff.
	CodeShed = 2
	// CodeDeadline: the request's propagated deadline expired on the
	// server. Not retryable — the client's budget is spent.
	CodeDeadline = 3
	// CodeEvicted: a round frame arrived for a request whose per-request
	// state the janitor already evicted (idle TTL or deadline). The
	// obfuscation chain is broken; the inference cannot continue.
	CodeEvicted = 4
	// CodeBadRound: a round the model does not have (refused before
	// admission, nothing created), or a repeated or out-of-order round of a
	// live request, which ends that request.
	CodeBadRound = 5
)

// Sentinel errors of the serving plane, raised locally and, through their
// codes, rebuilt on the far side of a TCP edge. Each coded sentinel is a
// *stream.CodedError: this block is the one code↔sentinel table, and an
// error frame carrying a code matches its sentinel with errors.Is.
var (
	// ErrThrottled is the rate-limit rejection.
	ErrThrottled error = &stream.CodedError{Code: CodeThrottled, Msg: "protocol: request throttled"}
	// ErrShed is the overload rejection.
	ErrShed error = &stream.CodedError{Code: CodeShed, Msg: "protocol: request shed by admission control"}
	// ErrDeadline is the server- or client-side deadline expiry.
	ErrDeadline error = &stream.CodedError{Code: CodeDeadline, Msg: "protocol: request deadline exceeded"}
	// ErrEvicted is the stale-request rejection.
	ErrEvicted error = &stream.CodedError{Code: CodeEvicted, Msg: "protocol: request state evicted"}
	// ErrBadRound is the server's CodeBadRound refusal, and the client's
	// failure of a call answered with a reply to another round.
	ErrBadRound error = &stream.CodedError{Code: CodeBadRound, Msg: "protocol: bad round"}
	// ErrRefused marks a session that never opened because a party refused
	// the other's terms: the server's error frame answering the Hello, or
	// the client's check of the plan the server answered with. A fresh
	// session would meet the same refusal, so the Redialer does not dial
	// one.
	ErrRefused = errors.New("protocol: session refused")
	// ErrSessionDown marks transport-level session failure (connection
	// reset, server gone). The whole inference may be retried on a fresh
	// session; no mid-protocol state survives. It never crosses the wire.
	ErrSessionDown = errors.New("protocol: session down")
)

// RoundError is the client-side view of an error frame: the round it
// failed at and the server's error as it arrived, which errors.Is matches
// against the sentinel of its code.
type RoundError struct {
	Round int
	Err   error
}

func (e *RoundError) Error() string {
	return fmt.Sprintf("protocol: server rejected round %d: %v", e.Round, e.Err)
}

// Unwrap returns the server's error.
func (e *RoundError) Unwrap() error { return e.Err }

// Retryable reports whether err is safe to retry. Throttle and shed
// rejections happen before the server creates per-request state, and a
// downed session destroys all mid-protocol state on both sides, so a
// fresh attempt starts clean. Deadline and eviction errors are not
// retryable: the budget is spent or the obfuscation chain is broken.
func Retryable(err error) bool {
	return errors.Is(err, ErrThrottled) || errors.Is(err, ErrShed) || errors.Is(err, ErrSessionDown)
}
