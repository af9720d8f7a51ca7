package obs

import (
	"strings"
	"testing"
	"time"
)

func TestNewTraceIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace id %q: want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

func TestSegmentLabel(t *testing.T) {
	cases := []struct {
		seg  Segment
		want string
	}{
		{Segment{Party: "client", Name: "queue"}, "client-queue"},
		{Segment{Party: "server", Name: "kernel"}, "server-kernel"},
		{Segment{Party: "wire", Name: "wire"}, "wire"},
		{Segment{Party: "", Name: "wire"}, "wire"},
	}
	for _, c := range cases {
		if got := c.seg.Label(); got != c.want {
			t.Errorf("label of %+v = %q, want %q", c.seg, got, c.want)
		}
	}
}

func mkTree(id string, kernel, nonlin time.Duration) *TraceTree {
	return &TraceTree{
		ID:    id,
		Total: 2*kernel + 2*nonlin + 3*time.Millisecond,
		Segments: []Segment{
			{Party: "client", Name: "encrypt", Round: -1, Dur: time.Millisecond},
			{Party: "server", Name: "kernel", Round: 0, Dur: kernel},
			{Party: "wire", Name: "wire", Round: 0, Dur: time.Millisecond},
			{Party: "client", Name: "nonlinear", Round: 0, Dur: nonlin},
			{Party: "server", Name: "kernel", Round: 1, Dur: kernel},
			{Party: "wire", Name: "wire", Round: 1, Dur: time.Millisecond},
			{Party: "client", Name: "nonlinear", Round: 1, Dur: nonlin},
		},
	}
}

func TestTraceTreeTotals(t *testing.T) {
	tree := mkTree("ab", 10*time.Millisecond, 2*time.Millisecond)
	byParty := map[string]time.Duration{}
	byLabel := map[string]time.Duration{}
	for _, s := range tree.Segments {
		byParty[s.Party] += s.Dur
		byLabel[s.Label()] += s.Dur
	}
	if got := byParty["server"]; got != 20*time.Millisecond {
		t.Errorf("server total %v, want 20ms", got)
	}
	if got := byLabel["client-nonlinear"]; got != 4*time.Millisecond {
		t.Errorf("client-nonlinear total %v, want 4ms", got)
	}
	if got := byLabel["wire"]; got != 2*time.Millisecond {
		t.Errorf("wire total %v, want 2ms", got)
	}
	if tree.Sum() != tree.Total {
		t.Errorf("sum %v != total %v", tree.Sum(), tree.Total)
	}
	if len(byParty) != 3 {
		t.Errorf("parties %v, want client/server/wire", byParty)
	}
	var nilTree *TraceTree
	if nilTree.Sum() != 0 || nilTree.Cost() != (CostStats{}) {
		t.Error("nil tree accessors must be zero")
	}
}

func TestBreakdownAggregation(t *testing.T) {
	trees := []*TraceTree{
		mkTree("a", 10*time.Millisecond, 2*time.Millisecond),
		nil, // failed request: skipped, not fatal
		mkTree("b", 12*time.Millisecond, 3*time.Millisecond),
		mkTree("c", 11*time.Millisecond, 2*time.Millisecond),
	}
	rows := Breakdown(trees)
	if len(rows) != 4 {
		t.Fatalf("got %d rows %v, want 4 labels", len(rows), rows)
	}
	// Canonical segment order.
	wantOrder := []string{"client-encrypt", "wire", "server-kernel", "client-nonlinear"}
	for i, w := range wantOrder {
		if rows[i].Label != w {
			t.Fatalf("row %d = %q, want %q (rows %+v)", i, rows[i].Label, w, rows)
		}
	}
	var kernel BreakdownRow
	for _, r := range rows {
		if r.Label == "server-kernel" {
			kernel = r
		}
	}
	if kernel.Count != 3 {
		t.Errorf("kernel count %d, want 3 traces", kernel.Count)
	}
	// Per-request kernel totals are 20/24/22ms → p50 = 22ms.
	if kernel.P50 != 22*time.Millisecond {
		t.Errorf("kernel p50 %v, want 22ms", kernel.P50)
	}
	if kernel.Total != 66*time.Millisecond {
		t.Errorf("kernel total %v, want 66ms", kernel.Total)
	}
	var share float64
	for _, r := range rows {
		share += r.Share
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("shares sum to %f, want 1", share)
	}

	out := RenderBreakdown(rows)
	for _, want := range []string{"segment", "server-kernel", "wire", "p99", "share"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered breakdown missing %q:\n%s", want, out)
		}
	}
	if Breakdown(nil) != nil {
		t.Error("empty breakdown should be nil")
	}
}

func TestRenderTree(t *testing.T) {
	tree := mkTree("deadbeef", 10*time.Millisecond, 2*time.Millisecond)
	tree.Total += 5 * time.Millisecond // unattributed remainder
	out := RenderTree(tree)
	for _, want := range []string{"deadbeef", "server-kernel", "round 1", "(unattributed)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, out)
		}
	}
	if got := RenderTree(nil); !strings.Contains(got, "no trace") {
		t.Errorf("nil tree render %q", got)
	}
}
