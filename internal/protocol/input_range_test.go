package protocol

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"ppstream/internal/obs"
	"ppstream/internal/stream"
	"ppstream/internal/tensor"
)

// TestEncryptRefusesOutOfRangeInputs: the honest-client contract is a
// check. Before any encryption (the meter stays zero) the data provider
// refuses, with an *InputRangeError naming the element, an input that is
// not a number, exceeds the declared domain, or — undeclared — whose x·F
// does not fit int64; the domain's own edge is served.
func TestEncryptRefusesOutOfRangeInputs(t *testing.T) {
	k := key(t)
	const factor = 1000
	declared := buildNet(t)
	declared.InputMax = 2
	undeclared := buildNet(t)
	for _, c := range []struct {
		name     string
		declared bool
		value    float64
		refused  bool
	}{
		{"declared/NaN", true, math.NaN(), true},
		{"declared/+Inf", true, math.Inf(1), true},
		{"declared/-Inf", true, math.Inf(-1), true},
		{"declared/just-outside", true, math.Nextafter(2, 3), true},
		{"declared/negative-outside", true, -2.5, true},
		{"declared/edge", true, 2, false},
		{"declared/negative-edge", true, -2, false},
		{"undeclared/NaN", false, math.NaN(), true},
		{"undeclared/-Inf", false, math.Inf(-1), true},
		{"undeclared/leaves-int64", false, 0x1p63 / factor, true},
		{"undeclared/negative-leaves-int64", false, -1e17, true},
		{"undeclared/fits-int64", false, -9e15, false},
	} {
		netw := undeclared
		if c.declared {
			netw = declared
		}
		dp, err := BuildDataProvider(netw, k, Config{Factor: factor})
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.MustFromSlice([]float64{0.5, -1, c.value, 0}, 4)
		var m obs.CostMeter
		env, err := dp.EncryptMetered(7, x, &m)
		if !c.refused {
			if err != nil || env == nil {
				t.Errorf("%s: refused an in-range input: %v", c.name, err)
			}
			continue
		}
		var rangeErr *InputRangeError
		if !errors.As(err, &rangeErr) {
			t.Errorf("%s: Encrypt = %v, want an *InputRangeError", c.name, err)
			continue
		}
		if rangeErr.Index != 2 || rangeErr.Declared != c.declared || (c.declared && rangeErr.Max != 2) {
			t.Errorf("%s: %+v", c.name, rangeErr)
		}
		if spent := m.Snapshot(); spent != (obs.CostStats{}) {
			t.Errorf("%s: refused after crypto work: %+v", c.name, spent)
		}
	}
}

// countingEdge counts the frames sent through an edge.
type countingEdge struct {
	stream.Edge
	sent atomic.Int64
}

func (e *countingEdge) Send(ctx context.Context, m *stream.Message) error {
	e.sent.Add(1)
	return e.Edge.Send(ctx, m)
}

// TestClientInferRefusesOutOfRangeInput: over a session, an out-of-domain
// input is the request's one terminal outcome — the typed error, with no
// frame sent and no pending entry or window permit left behind — and the
// session keeps serving.
func TestClientInferRefusesOutOfRangeInput(t *testing.T) {
	netw := buildNet(t)
	netw.InputMax = 4
	h := open(t, opening{tcp: true, net: netw, cfg: SessionConfig{MaxWorkers: 4}, opts: ClientOptions{Workers: 2}})
	client, ctx := h.client, h.ctx
	out := &countingEdge{Edge: client.out}
	client.out = out

	bad := tensor.MustFromSlice([]float64{0.1, 4.5, math.NaN(), 0}, 4)
	_, tree, err := client.InferTraced(ctx, bad)
	var rangeErr *InputRangeError
	if !errors.As(err, &rangeErr) || rangeErr.Index != 1 || rangeErr.Max != 4 {
		t.Fatalf("Infer(out of domain) = %v, want an *InputRangeError for element 1", err)
	}
	if tree != nil {
		t.Error("a refused request produced a trace")
	}
	client.mu.Lock()
	pending := len(client.table.live)
	client.mu.Unlock()
	if sent := out.sent.Load(); sent != 0 || pending != 0 || len(client.window) != 0 {
		t.Errorf("refused request sent %d frames, left %d pending entries and %d window permits", sent, pending, len(client.window))
	}

	good := tensor.MustFromSlice([]float64{0.1, 4, -4, 0}, 4)
	got, err := client.Infer(ctx, good)
	if err != nil {
		t.Fatalf("in-domain request after a refused one: %v", err)
	}
	want, _ := netw.Forward(good)
	if !tensor.AllClose(want, got, 1e-2) {
		t.Error("in-domain request after a refused one diverges")
	}
	client.Close()
	if err := h.wait(); err != nil {
		t.Fatalf("server: %v", err)
	}
}
