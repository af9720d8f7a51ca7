package protocol

import (
	"bytes"
	"context"
	mathrand "math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ppstream/internal/obs"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// traceSession starts a served session over a wire-encoded connection
// pair and returns the client plus the server's error channel.
func traceSession(t *testing.T, cfg SessionConfig) (*Client, chan error, context.Context) {
	t.Helper()
	RegisterServiceWire()
	k := key(t)
	netw := buildNet(t)
	cfg.Factor = 1000
	if cfg.MaxWorkers == 0 {
		cfg.MaxWorkers = 4
	}

	c2s1, s2c1 := net.Pipe()
	c2s2, s2c2 := net.Pipe()
	serverIn := stream.NewTCPEdge(s2c1)
	serverOut := stream.NewTCPEdge(c2s2)
	clientOut := stream.NewTCPEdge(c2s1)
	clientIn := stream.NewTCPEdge(s2c2)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ServeSessionConfig(ctx, serverIn, serverOut, netw, cfg)
	}()
	client, err := NewClientOpts(ctx, clientIn, clientOut, netw, k, cfg.Factor, ClientOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return client, serveErr, ctx
}

// TestInferTracedMergesBothParties runs real inferences through the
// session layer and checks the tentpole invariant: one trace, one ID,
// spans from BOTH parties, and segment durations that account for the
// client-observed latency up to merge bookkeeping. Run under -race in
// CI, it also exercises the concurrent span-accumulation paths.
func TestInferTracedMergesBothParties(t *testing.T) {
	var logBuf bytes.Buffer
	logMu := &sync.Mutex{}
	logger := obs.NewLogger(&lockedWriter{mu: logMu, b: &logBuf}, obs.LevelDebug).
		SetSlowThreshold(time.Nanosecond) // every round is "slow": forces trace-correlated log lines
	reg := obs.NewRegistry("trace-test")
	client, serveErr, ctx := traceSession(t, SessionConfig{Registry: reg, Log: logger})

	netw := buildNet(t)
	r := mathrand.New(mathrand.NewSource(77))
	x := tensor.Zeros(4)
	for i := range x.Data() {
		x.Data()[i] = r.NormFloat64()
	}

	got, tree, err := client.InferTraced(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := netw.Forward(x)
	if !tensor.AllClose(want, got, 1e-2) {
		t.Error("traced inference diverges from plaintext forward")
	}
	if tree == nil {
		t.Fatal("no trace tree for a successful inference")
	}
	if len(tree.ID) != 16 {
		t.Errorf("trace ID %q is not 16 hex chars", tree.ID)
	}

	// Both parties (plus the inferred wire gap) appear under one ID.
	parties := map[string]bool{}
	for _, p := range tree.Parties() {
		parties[p] = true
	}
	for _, p := range []string{"client", "server", "wire"} {
		if !parties[p] {
			t.Errorf("party %q missing from merged trace (have %v)", p, tree.Parties())
		}
	}

	// The test net has two linear rounds: expect per-round server kernel
	// and permute spans, per-round wire spans, per-round client
	// non-linear spans, and the request-scoped client spans.
	counts := map[string]int{}
	for _, s := range tree.Segments {
		counts[s.Label()]++
		if s.Dur < 0 {
			t.Errorf("segment %s has negative duration %v", s.Label(), s.Dur)
		}
	}
	const rounds = 2
	for label, want := range map[string]int{
		"client-queue":   1,
		"client-encrypt": 1,
		"wire":           rounds,
		"server-queue":   rounds,
		// Kernel and nonlinear spans carry the executing backend's label;
		// the default session runs the all-Paillier plan.
		"server-kernel[paillier-he]":    rounds,
		"server-permute":                rounds,
		"client-nonlinear[paillier-he]": rounds,
	} {
		if counts[label] != want {
			t.Errorf("segment %s appears %d times, want %d", label, counts[label], want)
		}
	}
	if tree.SegmentTotal("server-kernel") <= 0 {
		t.Error("server kernel time is zero: server spans did not cross the wire")
	}

	// Durations account for the client-observed latency: every slice of
	// the request's life is measured, so the unattributed remainder is
	// only loop bookkeeping (plus any wire clamping), far below the
	// crypto-dominated total.
	if tree.Sum() > tree.Total {
		t.Errorf("segment sum %v exceeds client-observed total %v", tree.Sum(), tree.Total)
	}
	if gap := tree.Total - tree.Sum(); gap > 50*time.Millisecond && gap > tree.Total/10 {
		t.Errorf("unattributed gap %v too large (total %v, sum %v)", gap, tree.Total, tree.Sum())
	}

	client.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("server: %v", err)
	}

	// The server's slow-round log lines carry the SAME trace ID the
	// client assigned — the cross-party correlation the log exists for.
	logMu.Lock()
	lines := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(lines, `"trace_id":"`+tree.ID+`"`) {
		t.Errorf("server log lacks the client's trace ID %s:\n%s", tree.ID, lines)
	}
	if !strings.Contains(lines, `"slow":true`) {
		t.Errorf("server log lacks slow-round lines:\n%s", lines)
	}

	// Server-side round histograms observed the kernel/permute split.
	snap := reg.Snapshot()
	if snap.Histograms["round.kernel"].Count != rounds {
		t.Errorf("round.kernel histogram count %d, want %d", snap.Histograms["round.kernel"].Count, rounds)
	}
	if snap.Histograms["round.permute"].Count != rounds {
		t.Errorf("round.permute count %d, want %d", snap.Histograms["round.permute"].Count, rounds)
	}
}

// TestInferTracedConcurrent interleaves traced inferences on one
// multiplexed session and checks every request keeps its own trace
// identity — the demux + per-request span accumulation under load.
func TestInferTracedConcurrent(t *testing.T) {
	client, serveErr, ctx := traceSession(t, SessionConfig{Window: 4})
	const n = 4
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		trees []*obs.TraceTree
	)
	r := mathrand.New(mathrand.NewSource(78))
	inputs := make([]*tensor.Dense, n)
	for i := range inputs {
		x := tensor.Zeros(4)
		for j := range x.Data() {
			x.Data()[j] = r.NormFloat64()
		}
		inputs[i] = x
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(x *tensor.Dense) {
			defer wg.Done()
			_, tree, err := client.InferTraced(ctx, x)
			if err != nil {
				t.Errorf("traced infer: %v", err)
				return
			}
			mu.Lock()
			trees = append(trees, tree)
			mu.Unlock()
		}(inputs[i])
	}
	wg.Wait()
	client.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("server: %v", err)
	}

	ids := map[string]bool{}
	for _, tree := range trees {
		if tree == nil {
			t.Fatal("nil tree from successful inference")
		}
		ids[tree.ID] = true
		if tree.SegmentTotal("server-kernel") <= 0 {
			t.Errorf("trace %s has no server kernel time", tree.ID)
		}
	}
	if len(ids) != n {
		t.Errorf("%d distinct trace IDs across %d requests", len(ids), n)
	}

	rows := obs.Breakdown(trees)
	if len(rows) == 0 {
		t.Fatal("empty breakdown from merged trees")
	}
	var sawKernel bool
	for _, row := range rows {
		if row.Label == "server-kernel[paillier-he]" && row.Count == n && row.P50 > 0 {
			sawKernel = true
		}
	}
	if !sawKernel {
		t.Errorf("breakdown lacks a server-kernel row covering all %d requests: %+v", n, rows)
	}
}

// lockedWriter serializes buffer access between the logger's writes and
// the test's final read (the logger locks per line, but the test reads
// concurrently with late server goroutines under -race).
type lockedWriter struct {
	mu *sync.Mutex
	b  *bytes.Buffer
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}
