package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func testTree(id string, total time.Duration) *TraceTree {
	return &TraceTree{
		ID:    id,
		Total: total,
		Segments: []Segment{
			{Party: "client", Name: "encrypt", Round: -1, Dur: total / 2},
			{Party: "server", Name: "kernel", Round: 0, Dur: total / 2},
		},
	}
}

// TestTraceStoreRetentionReasons: errors always kept, the slowest K of
// a window kept, everything else dropped when sampling is off.
func TestTraceStoreRetentionReasons(t *testing.T) {
	reg := NewRegistry("ts")
	ts, err := NewTraceStore(TraceStoreConfig{SlowestK: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	ts.now = func() time.Time { return now }

	if reason, kept := ts.Record(testTree("err1", time.Millisecond), nil, errors.New("boom")); !kept || reason != TraceKeptError {
		t.Fatalf("errored request: %q %v", reason, kept)
	}
	// First two completions seed the slowest-K window.
	for i, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond} {
		if reason, kept := ts.Record(testTree(fmt.Sprintf("slow%d", i), d), nil, nil); !kept || reason != TraceKeptSlow {
			t.Fatalf("seed %d: %q %v", i, reason, kept)
		}
	}
	// Faster than both retained durations, sampling off: dropped.
	if _, kept := ts.Record(testTree("fast", time.Millisecond), nil, nil); kept {
		t.Fatal("unremarkable request retained")
	}
	// Slower than the window's fastest retained: replaces it.
	if reason, kept := ts.Record(testTree("slower", 30*time.Millisecond), nil, nil); !kept || reason != TraceKeptSlow {
		t.Fatalf("slow replacement: %q %v", reason, kept)
	}
	// The window resets with the clock: a modest request is slowest-K
	// again in the fresh window.
	now = now.Add(2 * time.Minute)
	if reason, kept := ts.Record(testTree("fresh", 2*time.Millisecond), nil, nil); !kept || reason != TraceKeptSlow {
		t.Fatalf("fresh window: %q %v", reason, kept)
	}

	snap := reg.Snapshot()
	if snap.Counters["tracestore.kept.error"] != 1 ||
		snap.Counters["tracestore.kept.slow"] != 4 ||
		snap.Counters["tracestore.dropped"] != 1 {
		t.Errorf("retention counters %+v", snap.Counters)
	}

	// The error record answers an ID query.
	recs := ts.Query(TraceQuery{ID: "err1"})
	if len(recs) != 1 || recs[0].Err != "boom" || recs[0].Reason != TraceKeptError {
		t.Errorf("ID query %+v", recs)
	}
	// MinDur filters the fast seeds out.
	recs = ts.Query(TraceQuery{MinDur: 25 * time.Millisecond})
	if len(recs) != 1 || recs[0].Trace.ID != "slower" {
		t.Errorf("MinDur query %+v", recs)
	}
}

// TestTraceSampledDeterministic: the hash-of-ID decision is stable (the
// same ID always gets the same verdict), respects the edges, and lands
// near the target rate.
func TestTraceSampledDeterministic(t *testing.T) {
	if traceSampled("abc", 0) || traceSampled("", 0.5) {
		t.Error("prob 0 / empty ID must never sample")
	}
	if !traceSampled("abc", 1) {
		t.Error("prob 1 must always sample")
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("trace-%d", i)
		a, b := traceSampled(id, 0.2), traceSampled(id, 0.2)
		if a != b {
			t.Fatalf("non-deterministic verdict for %s", id)
		}
		if a {
			hits++
		}
	}
	if hits < 120 || hits > 290 {
		t.Errorf("sampled %d of 1000 at prob 0.2", hits)
	}
}

// TestNewTraceStoreRejectsSampleProb: a keep probability outside [0,1],
// NaN included, is refused rather than clamped; the edges are accepted.
func TestNewTraceStoreRejectsSampleProb(t *testing.T) {
	for _, p := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1)} {
		if ts, err := NewTraceStore(TraceStoreConfig{SampleProb: p}); err == nil || ts != nil {
			t.Errorf("SampleProb %v accepted", p)
		}
	}
	for _, p := range []float64{0, 1} {
		if _, err := NewTraceStore(TraceStoreConfig{SampleProb: p}); err != nil {
			t.Errorf("SampleProb %v refused: %v", p, err)
		}
	}
}

// TestTraceStoreMemRing: without a directory the memory ring is bounded
// and newest-biased.
func TestTraceStoreMemRing(t *testing.T) {
	ts, err := NewTraceStore(TraceStoreConfig{MemRecords: 4, SampleProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ts.Record(testTree(fmt.Sprintf("m%d", i), time.Millisecond), nil, nil)
	}
	recs := ts.Query(TraceQuery{})
	if len(recs) != 4 || recs[0].Trace.ID != "m6" || recs[3].Trace.ID != "m9" {
		t.Errorf("mem ring %+v", recs)
	}
}

// TestTraceStoreNil: a nil store ignores everything.
func TestTraceStoreNil(t *testing.T) {
	var ts *TraceStore
	if _, kept := ts.Record(testTree("x", time.Second), nil, nil); kept {
		t.Error("nil store retained")
	}
	if recs := ts.Query(TraceQuery{}); recs != nil {
		t.Error("nil store query")
	}
	if err := ts.Close(); err != nil {
		t.Error(err)
	}
}

// TestTraceStoreConcurrent hammers Record and Query together under
// -race, with a ring small enough that it wraps while readers scan it.
func TestTraceStoreConcurrent(t *testing.T) {
	ts, err := NewTraceStore(TraceStoreConfig{MemRecords: 16, SampleProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ts.Record(testTree(fmt.Sprintf("c%d-%d", w, i), time.Duration(i)*time.Millisecond), nil, nil)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if recs := ts.Query(TraceQuery{MinDur: time.Millisecond}); len(recs) > 16 {
					t.Errorf("query: %d records (bound 16)", len(recs))
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceStoreErrorsAndSlowestSurviveTraffic: under ordinary traffic
// with sampling off, the store keeps exactly the errored requests and the
// ones that were among the slowest of their window when they finished.
func TestTraceStoreErrorsAndSlowestSurviveTraffic(t *testing.T) {
	reg := NewRegistry("ts")
	ts, err := NewTraceStore(TraceStoreConfig{SlowestK: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	special := map[int]string{10: "err", 30: "slow", 60: "slower", 70: "err"}
	for i := 0; i < 100; i++ {
		d, err := time.Millisecond, error(nil)
		switch special[i] {
		case "err":
			err = errors.New("boom")
		case "slow":
			d = 100 * time.Millisecond
		case "slower":
			d = 120 * time.Millisecond
		}
		ts.Record(testTree(fmt.Sprintf("r%d", i), d), nil, err)
	}
	recs := ts.Query(TraceQuery{})
	var got []string
	for _, rec := range recs {
		got = append(got, rec.Trace.ID+"/"+rec.Reason)
	}
	// r0 and r1 seed the window's slowest two; after them only the
	// errored and the slower-than-a-keeper requests are retained.
	want := "[r0/slow r1/slow r10/error r30/slow r60/slow r70/error]"
	if fmt.Sprint(got) != want {
		t.Errorf("retained %v, want %s", got, want)
	}
	if n := reg.Snapshot().Counters["tracestore.dropped"]; n != 94 {
		t.Errorf("dropped %d, want 94", n)
	}
}

// TestFlightRecorderRings: the benchmark's store keeps every request it
// is offered, newest memRecords of them, each labelled with the reason
// the tail-sampling policy would have kept it for.
func TestFlightRecorderRings(t *testing.T) {
	f := NewFlightRecorder(3, 1, 0)
	for _, r := range []struct {
		id     string
		d      time.Duration
		err    error
		reason string
	}{
		{"first", time.Millisecond, nil, TraceKeptSlow}, // seeds the window's slowest one
		{"failed", time.Millisecond, errors.New("boom"), TraceKeptError},
		{"slowest", 9 * time.Millisecond, nil, TraceKeptSlow},
		{"fast-a", time.Millisecond, nil, TraceKeptSampled},
		{"fast-b", time.Millisecond, nil, TraceKeptSampled},
	} {
		if reason, kept := f.Record(testTree(r.id, r.d), nil, r.err); !kept || reason != r.reason {
			t.Errorf("%s: kept %v as %q, want %q", r.id, kept, reason, r.reason)
		}
	}
	recs := f.Query(TraceQuery{})
	if len(recs) != 3 || recs[0].Trace.ID != "slowest" || recs[2].Trace.ID != "fast-b" {
		t.Fatalf("ring holds %+v, want the newest three oldest first", recs)
	}
	if c := recs[0].Trace.Cost(); c != (CostStats{}) || recs[0].Trace.Total != 9*time.Millisecond {
		t.Errorf("record lost its tree: %+v", recs[0].Trace)
	}
}

// TestFlightRecorderDefaults: NewFlightRecorder(0, 0, 0), as the
// benchmark calls it, keeps the last 256 requests and labels the first
// 8 of a window of equal requests slow.
func TestFlightRecorderDefaults(t *testing.T) {
	f := NewFlightRecorder(0, 0, 0)
	slow := 0
	for i := 0; i < 256+5; i++ {
		if reason, _ := f.Record(testTree(fmt.Sprintf("t%d", i), time.Millisecond), nil, nil); reason == TraceKeptSlow {
			slow++
		}
	}
	recs := f.Query(TraceQuery{Limit: 1000})
	if len(recs) != 256 || slow != 8 {
		t.Errorf("kept %d records, %d slow; want 256 and 8", len(recs), slow)
	}
}

// TestFlightRecorderNilSafe: a nil store and a nil tree record nothing.
func TestFlightRecorderNilSafe(t *testing.T) {
	var f *TraceStore
	if _, kept := f.Record(testTree("x", time.Millisecond), []string{"clear"}, nil); kept {
		t.Error("nil store recorded something")
	}
	live := NewFlightRecorder(2, 2, 2)
	if _, kept := live.Record(nil, nil, errors.New("no tree")); kept {
		t.Error("nil tree was recorded")
	}
	if recs := live.Query(TraceQuery{}); len(recs) != 0 {
		t.Errorf("query after a nil tree: %+v", recs)
	}
}

// TestFlightRecordPlan: records carry the session plan, so a retained
// request shows which backend mix produced it, and the JSON joins on the
// trace ID.
func TestFlightRecordPlan(t *testing.T) {
	f := NewFlightRecorder(4, 2, 4)
	f.Record(testTree("fp-1", 10*time.Millisecond), []string{"paillier-he", "ss-gc"}, nil)
	f.Record(testTree("fp-2", 20*time.Millisecond), nil, errors.New("late"))
	recs := f.Query(TraceQuery{})
	if len(recs) != 2 || len(recs[0].Plan) != 2 || recs[0].Plan[0] != "paillier-he" {
		t.Fatalf("planned record %+v", recs)
	}
	if recs[1].Plan != nil || recs[1].Err != "late" {
		t.Errorf("plain record %+v", recs[1])
	}
	var buf strings.Builder
	if err := f.WriteJSON(&buf, TraceQuery{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"trace_id": "fp-1"`) || !strings.Contains(buf.String(), `"plan"`) {
		t.Errorf("record JSON missing join fields:\n%s", buf.String())
	}
}

// TestFlightRecorderConcurrent hammers Record, Query and WriteJSON (what
// /debug/traces serves) from concurrent goroutines; run under -race this
// is the store's thread-safety gate.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(16, 4, 0)

	const writers, perWriter, readers = 8, 200, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				var err error
				if i%17 == 0 {
					err = errors.New("synthetic failure")
				}
				if _, kept := f.Record(testTree(fmt.Sprintf("w%d-%d", w, i), time.Duration(i+1)*time.Microsecond), nil, err); !kept {
					t.Errorf("w%d-%d dropped", w, i)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if recs := f.Query(TraceQuery{}); len(recs) > 16 {
					t.Errorf("query: %d records (bound 16)", len(recs))
					return
				}
				var buf bytes.Buffer
				var recs []TraceRecord
				if err := f.WriteJSON(&buf, TraceQuery{}); err != nil || json.Unmarshal(buf.Bytes(), &recs) != nil {
					t.Errorf("WriteJSON: %v, body not a record list", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if recs := f.Query(TraceQuery{}); len(recs) != 16 {
		t.Errorf("final ring holds %d, want 16", len(recs))
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("pipe closed") }

// TestFlightWriteJSONError: the dump's writer failing (a closed HTTP
// connection, a full stderr pipe) is returned with context, never
// ignored.
func TestFlightWriteJSONError(t *testing.T) {
	f := NewFlightRecorder(2, 2, 2)
	f.Record(testTree("t0", time.Millisecond), nil, nil)
	err := f.WriteJSON(failWriter{}, TraceQuery{})
	if err == nil || !strings.Contains(err.Error(), "trace records") {
		t.Fatalf("WriteJSON error %v, want the writer's failure with context", err)
	}
}
