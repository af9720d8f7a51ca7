package stream

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// chaosDrive pushes n messages through a fresh seeded ChaosEdge over an
// in-process channel edge and returns which ones the receiver saw plus
// the final stats.
func chaosDrive(t *testing.T, cfg ChaosConfig, n int) ([]uint64, ChaosStats) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e := NewChaosEdge(NewChannelEdge(n), cfg)
	var delivered []uint64
	for i := 0; i < n; i++ {
		if err := e.Send(ctx, &Message{Seq: uint64(i)}); err != nil {
			if errors.Is(err, ErrChaosReset) {
				break
			}
			t.Fatalf("send %d: %v", i, err)
		}
	}
	e.inner.CloseSend()
	for {
		m, err := e.inner.Recv(ctx)
		if err != nil {
			break
		}
		delivered = append(delivered, m.Seq)
	}
	return delivered, e.Stats()
}

// TestChaosEdgeDeterministic: the same seed produces the identical fault
// schedule; a different seed produces a different one.
func TestChaosEdgeDeterministic(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, DropProb: 0.3, ResetProb: 0.02}
	a, sa := chaosDrive(t, cfg, 200)
	b, sb := chaosDrive(t, cfg, 200)
	if len(a) != len(b) || sa != sb {
		t.Fatalf("same seed diverged: %d/%v vs %d/%v", len(a), sa, len(b), sb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	cfg.Seed = 8
	c, sc := chaosDrive(t, cfg, 200)
	if len(c) == len(a) && sc == sa {
		t.Fatalf("different seeds produced the identical schedule: %v", sc)
	}
	if sa.Drops == 0 {
		t.Fatal("drop probability 0.3 over 200 sends injected nothing")
	}
}

// TestChaosEdgeReset: after an injected reset every operation fails with
// ErrChaosReset — the transport is dead for good.
func TestChaosEdgeReset(t *testing.T) {
	ctx := context.Background()
	e := NewChaosEdge(NewChannelEdge(4), ChaosConfig{Seed: 1, ResetProb: 1})
	if err := e.Send(ctx, &Message{Seq: 1}); !errors.Is(err, ErrChaosReset) {
		t.Fatalf("first send: %v", err)
	}
	if err := e.Send(ctx, &Message{Seq: 2}); !errors.Is(err, ErrChaosReset) {
		t.Fatalf("send after reset: %v", err)
	}
	if _, err := e.Recv(ctx); !errors.Is(err, ErrChaosReset) {
		t.Fatalf("recv after reset: %v", err)
	}
	if st := e.Stats(); st.Resets != 1 {
		t.Fatalf("resets counted %d, want 1 (dead transport injects no further faults)", st.Resets)
	}
}

// TestChaosConnCorrupt: a corrupted write leaves the peer's gob stream
// undecodable — the frame-level symptom a bit flip on the wire causes —
// while the sender's buffer is untouched.
func TestChaosConnCorrupt(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	cc := NewChaosConn(client, ChaosConfig{Seed: 3, CorruptProb: 1})
	payload := []byte("round frame bytes")
	kept := string(payload)
	recvErr := make(chan []byte, 1)
	go func() {
		buf := make([]byte, len(payload))
		n, _ := server.Read(buf)
		recvErr <- buf[:n]
	}()
	if _, err := cc.Write(payload); err != nil {
		t.Fatal(err)
	}
	got := <-recvErr
	if string(got) == kept {
		t.Fatal("corruption injected but bytes arrived intact")
	}
	if string(payload) != kept {
		t.Fatal("sender's buffer was mutated in place")
	}
	if st := cc.Stats(); st.Corrupts != 1 {
		t.Fatalf("corrupts counted %d", st.Corrupts)
	}
}

// TestChaosConnReset: an injected reset closes the underlying conn so
// the peer sees the tear, and later operations fail immediately.
func TestChaosConnReset(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	cc := NewChaosConn(client, ChaosConfig{Seed: 5, ResetProb: 1})
	peerErr := make(chan error, 1)
	go func() {
		_, err := server.Read(make([]byte, 8))
		peerErr <- err
	}()
	if _, err := cc.Write([]byte("x")); !errors.Is(err, ErrChaosReset) {
		t.Fatalf("write: %v", err)
	}
	if err := <-peerErr; err == nil {
		t.Fatal("peer did not observe the reset")
	}
	if _, err := cc.Read(make([]byte, 8)); !errors.Is(err, ErrChaosReset) {
		t.Fatalf("read after reset: %v", err)
	}
}
