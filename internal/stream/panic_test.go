package stream

import (
	"context"
	"strings"
	"testing"
)

// TestPanicContainment verifies that a panicking handler fails only its
// request: the stage survives and keeps serving the stream.
func TestPanicContainment(t *testing.T) {
	h := Stage{Name: "panicky", Fn: func(_ context.Context, m *Message) (*Message, error) {
		if m.Payload.(int) == 2 {
			panic("boom on request 2")
		}
		return m, nil
	}}
	in, out := chain(t, h)
	var failed, ok int
	for _, m := range submitAll(t, in, out, 0, 1, 2, 3, 4) {
		if m.Err != nil {
			failed++
			if msg := m.Err.Error(); !strings.Contains(msg, "panic") || !strings.Contains(msg, "boom") {
				t.Errorf("panic cause lost: %q", msg)
			}
		} else {
			ok++
		}
	}
	if failed != 1 || ok != 4 {
		t.Errorf("failed=%d ok=%d, want 1/4 — panic not contained to its request", failed, ok)
	}
}
