package protocol

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ppstream/internal/stream"
)

// codedSentinels is every sentinel that has a wire code.
var codedSentinels = []struct {
	code     int
	sentinel error
}{
	{CodeThrottled, ErrThrottled},
	{CodeShed, ErrShed},
	{CodeDeadline, ErrDeadline},
	{CodeEvicted, ErrEvicted},
	{CodeBadRound, ErrBadRound},
}

// errCode is the wire code err carries: that of the first CodedError in its
// chain, CodeNone without one.
func errCode(err error) int {
	var c *stream.CodedError
	if errors.As(err, &c) {
		return c.Code
	}
	return CodeNone
}

// TestRoundErrorUnwrap: an error frame surfaced as RoundError keeps its
// round and matches its code's sentinel, and only that one, through
// errors.Is; an uncoded error matches none.
func TestRoundErrorUnwrap(t *testing.T) {
	for _, c := range codedSentinels {
		err := error(&RoundError{Round: 2, Err: &stream.CodedError{Code: c.code, Msg: "x"}})
		if !errors.Is(err, c.sentinel) {
			t.Errorf("code %d does not match %v", c.code, c.sentinel)
		}
		for _, other := range codedSentinels {
			if other.code != c.code && errors.Is(err, other.sentinel) {
				t.Errorf("code %d wrongly matches %v", c.code, other.sentinel)
			}
		}
	}
	unknown := error(&RoundError{Err: &stream.CodedError{Code: CodeNone, Msg: "legacy peer"}})
	for _, c := range codedSentinels {
		if errors.Is(unknown, c.sentinel) {
			t.Errorf("CodeNone matched %v", c.sentinel)
		}
	}
}

// TestCodeRoundTrip: every coded sentinel, bare or wrapped with context,
// crosses a TCP edge and matches the same sentinel — and no
// other — on the far side, with its text intact; an uncoded error arrives
// matching none. This is what keeps server-side raising and client-side
// matching on one table.
func TestCodeRoundTrip(t *testing.T) {
	dialed, accepted := loopback(t)
	send, recv := stream.NewTCPEdge(dialed), stream.NewTCPEdge(accepted)
	defer send.CloseSend()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hop := func(sent error) error {
		t.Helper()
		if err := send.Send(ctx, &stream.Message{Seq: 1, Err: sent}); err != nil {
			t.Fatal(err)
		}
		m, err := recv.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.Err == nil || m.Err.Error() != sent.Error() {
			t.Fatalf("sent %q, received %v", sent, m.Err)
		}
		return m.Err
	}
	for _, c := range codedSentinels {
		for _, sent := range []error{
			c.sentinel,
			fmt.Errorf("context: %w", c.sentinel),
		} {
			got := hop(sent)
			for _, other := range codedSentinels {
				if errors.Is(got, other.sentinel) != (other.code == c.code) {
					t.Errorf("%q (code %d) after the hop: errors.Is(%v) = %v", sent, c.code, other.sentinel, !(other.code == c.code))
				}
			}
		}
	}
	got := hop(errors.New("plain"))
	for _, c := range codedSentinels {
		if errors.Is(got, c.sentinel) {
			t.Errorf("uncoded error matched %v after the hop", c.sentinel)
		}
	}
}

// TestRetryableMatrix: only throttle, shed, and torn-session errors are
// retryable; deadline and eviction are terminal.
func TestRetryableMatrix(t *testing.T) {
	retryable := []error{
		ErrThrottled,
		ErrShed,
		fmt.Errorf("%w: dial: connection refused", ErrSessionDown),
		&RoundError{Err: &stream.CodedError{Code: CodeShed, Msg: "overload"}},
	}
	for _, err := range retryable {
		if !Retryable(err) {
			t.Errorf("%v should be retryable", err)
		}
	}
	terminal := []error{
		ErrDeadline,
		ErrEvicted,
		&RoundError{Err: &stream.CodedError{Code: CodeEvicted, Msg: "stale"}},
		errors.New("protocol violation"),
	}
	for _, err := range terminal {
		if Retryable(err) {
			t.Errorf("%v should be terminal", err)
		}
	}
}
