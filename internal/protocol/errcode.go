package protocol

import (
	"errors"
	"fmt"
)

// Error codes classify error frames on the wire so a client can tell a
// retryable rejection (throttle, shed) from a fatal protocol error
// without parsing message text. The numeric values ride in
// stream.Message.ErrCode, a fixed field of every frame header.
const (
	// CodeNone marks an unclassified error.
	CodeNone = 0
	// CodeThrottled: the model provider's rate limiter rejected the
	// request's first round. Retryable after backoff.
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
	// CodeBadRound: a round frame named a round the model does not have.
	// Rejected before admission; nothing was created for it.
	CodeBadRound = 5
)

// Sentinel errors surfaced by the client for typed error frames and by
// the serving plane for local rejections. Match with errors.Is.
var (
	// ErrThrottled is the rate-limit rejection (CodeThrottled).
	ErrThrottled = errors.New("protocol: request throttled")
	// ErrShed is the overload rejection (CodeShed).
	ErrShed = errors.New("protocol: request shed by admission control")
	// ErrDeadline is the server- or client-side deadline expiry
	// (CodeDeadline).
	ErrDeadline = errors.New("protocol: request deadline exceeded")
	// ErrEvicted is the stale-request rejection (CodeEvicted).
	ErrEvicted = errors.New("protocol: request state evicted")
	// ErrBadRound is the out-of-range round rejection (CodeBadRound).
	ErrBadRound = errors.New("protocol: round out of range")
	// ErrSessionDown marks transport-level session failure (connection
	// reset, server gone). The whole inference may be retried on a fresh
	// session; no mid-protocol state survives.
	ErrSessionDown = errors.New("protocol: session down")
)

// codeSentinel maps a wire code to its errors.Is sentinel.
func codeSentinel(code int) error {
	switch code {
	case CodeThrottled:
		return ErrThrottled
	case CodeShed:
		return ErrShed
	case CodeDeadline:
		return ErrDeadline
	case CodeEvicted:
		return ErrEvicted
	case CodeBadRound:
		return ErrBadRound
	default:
		return nil
	}
}

// codeOf classifies a server-side error into its wire code.
func codeOf(err error) int {
	switch {
	case errors.Is(err, ErrThrottled):
		return CodeThrottled
	case errors.Is(err, ErrShed):
		return CodeShed
	case errors.Is(err, ErrDeadline):
		return CodeDeadline
	case errors.Is(err, ErrEvicted):
		return CodeEvicted
	case errors.Is(err, ErrBadRound):
		return CodeBadRound
	default:
		return CodeNone
	}
}

// RoundError is the client-side view of a typed error frame: the round
// it failed at, the wire code, and the server's message. Unwrap returns
// the code's sentinel, so errors.Is(err, ErrThrottled) etc. work through
// the usual chain.
type RoundError struct {
	Round int
	Code  int
	Msg   string
}

func (e *RoundError) Error() string {
	return fmt.Sprintf("protocol: server rejected round %d: %s", e.Round, e.Msg)
}

// Unwrap exposes the code's sentinel for errors.Is matching.
func (e *RoundError) Unwrap() error { return codeSentinel(e.Code) }

// Retryable reports whether err is safe to retry. Throttle and shed
// rejections happen before the server creates per-request state, and a
// downed session destroys all mid-protocol state on both sides, so a
// fresh attempt starts clean. Deadline and eviction errors are not
// retryable: the budget is spent or the obfuscation chain is broken.
func Retryable(err error) bool {
	return errors.Is(err, ErrThrottled) || errors.Is(err, ErrShed) || errors.Is(err, ErrSessionDown)
}
