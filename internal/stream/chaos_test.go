package stream

import (
	"errors"
	"net"
	"testing"
	"time"
)

// sinkConn is a net.Conn that accepts every write and closes without
// complaint.
type sinkConn struct{ net.Conn }

func (sinkConn) Write(p []byte) (int, error) { return len(p), nil }
func (sinkConn) Close() error                { return nil }

// chaosWrites writes up to n times through a fresh seeded ChaosConn and
// returns how many writes went through before a reset, and the stats.
func chaosWrites(cfg ChaosConfig, n int) (int, ChaosStats) {
	cc := NewChaosConn(sinkConn{}, cfg)
	ok := 0
	for ; ok < n; ok++ {
		if _, err := cc.Write([]byte{1}); err != nil {
			break
		}
	}
	return ok, cc.Stats()
}

// TestChaosConnDeterministic: the same seed produces the identical fault
// schedule; a different seed produces a different one.
func TestChaosConnDeterministic(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, DelayProb: 0.3, DelayMin: time.Microsecond, ResetProb: 0.02}
	a, sa := chaosWrites(cfg, 400)
	if b, sb := chaosWrites(cfg, 400); a != b || sa != sb {
		t.Fatalf("same seed diverged: %d writes %+v vs %d writes %+v", a, sa, b, sb)
	}
	if sa.Delays == 0 || sa.Resets != 1 {
		t.Fatalf("delay 0.3 and reset 0.02 over %d writes injected %+v", a+1, sa)
	}
	cfg.Seed = 8
	if c, sc := chaosWrites(cfg, 400); c == a && sc == sa {
		t.Fatalf("different seeds produced the identical schedule: %d writes %+v", c, sc)
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
