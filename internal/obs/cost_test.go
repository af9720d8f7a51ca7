package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCostMeterAddSnapshotDiff(t *testing.T) {
	var m CostMeter
	m.Add(CostStats{ModExps: 3, MulMods: 10, CipherBytesIn: 128})
	m.Add(CostStats{ModExps: 2, PoolHits: 4, PoolMisses: 1, Rerands: 5})

	st := m.Snapshot()
	want := CostStats{ModExps: 5, MulMods: 10, Rerands: 5, PoolHits: 4, PoolMisses: 1, CipherBytesIn: 128}
	if st != want {
		t.Fatalf("snapshot = %+v, want %+v", st, want)
	}

	prev := st
	m.Add(CostStats{Encrypts: 7, Decrypts: 2, CipherBytesOut: 64})
	d := m.Diff(prev)
	wantDiff := CostStats{Encrypts: 7, Decrypts: 2, CipherBytesOut: 64}
	if d != wantDiff {
		t.Fatalf("diff = %+v, want %+v", d, wantDiff)
	}
}

func TestCostMeterNilSafe(t *testing.T) {
	var m *CostMeter
	m.Add(CostStats{ModExps: 1}) // must not panic
	if st := m.Snapshot(); !st.IsZero() {
		t.Fatalf("nil meter snapshot = %+v, want zero", st)
	}
}

func TestCostMeterConcurrentAdds(t *testing.T) {
	var m CostMeter
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Add(CostStats{ModExps: 1, MulMods: 2, CipherBytesOut: 3})
			}
		}()
	}
	wg.Wait()
	st := m.Snapshot()
	if st.ModExps != workers*per || st.MulMods != 2*workers*per || st.CipherBytesOut != 3*workers*per {
		t.Fatalf("concurrent totals wrong: %+v", st)
	}
}

// TestCostFieldsCoverStruct pins the single-source-of-truth property: every
// CostStats struct field must appear in costFields exactly once, carry a
// json tag matching the field's canonical name, and sit at the index
// CostStats.fields addresses it by.
func TestCostFieldsCoverStruct(t *testing.T) {
	typ := reflect.TypeOf(CostStats{})
	if typ.NumField() != len(costFields) {
		t.Fatalf("CostStats has %d fields but costFields lists %d", typ.NumField(), len(costFields))
	}
	seen := map[string]bool{}
	for _, f := range costFields {
		if f != strings.ToLower(f) {
			t.Errorf("cost field name %q is not lowercase", f)
		}
		if seen[f] {
			t.Errorf("cost field %q listed twice", f)
		}
		seen[f] = true
	}
	for i, f := range costFields {
		// Set field i through the table's order, read it back by name.
		var st CostStats
		*st.Fields()[i] = 41
		v := reflect.ValueOf(st)
		for j := 0; j < typ.NumField(); j++ {
			tag := strings.Split(typ.Field(j).Tag.Get("json"), ",")[0]
			if tag == "" || tag == "-" {
				t.Errorf("CostStats.%s has no json tag", typ.Field(j).Name)
			}
			if got := v.Field(j).Uint(); (got == 41) != (tag == f) {
				t.Errorf("costFields[%d] %q addresses CostStats.%s (json %q)", i, f, typ.Field(j).Name, tag)
			}
		}
	}
}

func TestCostStatsJSONFieldNames(t *testing.T) {
	st := CostStats{ModExps: 1, MulMods: 1, ModInverses: 1, Rerands: 1,
		PoolHits: 1, PoolMisses: 1, Encrypts: 1, Decrypts: 1,
		CipherBytesIn: 1, CipherBytesOut: 1,
		Triples: 1, OpenedWords: 1, GCGates: 1, ExtOTs: 1, PlainOps: 1}
	raw, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]uint64
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, f := range costFields {
		if decoded[f] != 1 {
			t.Errorf("JSON output missing cost field %q: %s", f, raw)
		}
	}
}

// TestAddCostToRegistry: a fold writes each field once into the
// process-wide counter and once into the backend's, the handles it holds
// after its first call keep adding to the registry's counters, and only
// the backend's counters keep a window.
func TestAddCostToRegistry(t *testing.T) {
	reg := NewRegistry("costtest")
	reg.KeepWindows()
	fold := AddCostToRegistry(reg, "ss_gc")
	fold(CostStats{ModExps: 4, PoolHits: 3, CipherBytesIn: 77})
	fold(CostStats{ModExps: 5})
	AddCostToRegistry(reg, "")(CostStats{ModExps: 1})
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"cost.modexps": 10, "cost.pool_hits": 3, "cost.cipher_bytes_in": 77,
		"cost.ss_gc.modexps": 9, "cost.ss_gc.pool_hits": 3,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if _, ok := snap.Counters["cost.ss_gc.mulmods"]; ok {
		t.Error("a zero field minted a counter")
	}
	live := reg.LiveSnapshot().Counters
	if live["cost.ss_gc.modexps"].Count != 9 || len(live) != 3 {
		t.Errorf("live views %+v, want the three ss_gc counters", live)
	}
	AddCostToRegistry(nil, "clear")(CostStats{ModExps: 1}) // must not panic

	// Every field reaches the snapshot under its costFields name.
	var all CostStats
	for i, p := range all.Fields() {
		*p = uint64(i + 1)
	}
	reg = NewRegistry("allfields")
	AddCostToRegistry(reg, "")(all)
	snap = reg.Snapshot()
	for i, f := range costFields {
		if got := snap.Counters["cost."+f]; got != uint64(i+1) {
			t.Errorf("cost.%s = %d, want %d", f, got, i+1)
		}
	}
}

func TestPoolHitRate(t *testing.T) {
	st := CostStats{}
	if got := st.poolHitRate(); got != -1 {
		t.Fatalf("empty hit rate = %v, want -1", got)
	}
	st = CostStats{PoolHits: 3, PoolMisses: 1}
	if got := st.poolHitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}

func TestCostStatsString(t *testing.T) {
	var zero CostStats
	if got := zero.String(); got != "-" {
		t.Fatalf("zero String() = %q, want -", got)
	}
	st := CostStats{ModExps: 2, PoolHits: 1, PoolMisses: 1}
	s := st.String()
	for _, want := range []string{"modexps=2", "pool_hits=1", "pool_hit_rate=0.50"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}

func TestTraceTreeCostAndRender(t *testing.T) {
	tree := &TraceTree{
		ID:    "abc",
		Total: 100,
		Segments: []Segment{
			{Party: "server", Name: "kernel", Round: 0, Dur: 50,
				Cost: &CostStats{ModExps: 4, MulMods: 100}},
			{Party: "client", Name: "encrypt", Round: -1, Dur: 30,
				Cost: &CostStats{Encrypts: 8}},
			{Party: "wire", Name: "wire", Round: 0, Dur: 20},
		},
	}
	total := tree.Cost()
	if total.ModExps != 4 || total.MulMods != 100 || total.Encrypts != 8 {
		t.Fatalf("tree cost = %+v", total)
	}
	out := RenderTree(tree)
	for _, want := range []string{"cost: modexps=4 mulmods=100", "cost: encrypts=8", "request cost:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("RenderTree output missing %q:\n%s", want, out)
		}
	}
}

func TestNewTraceIDFallback(t *testing.T) {
	old := traceRandom
	defer func() { traceRandom = old }()

	traceRandom = failReader{}
	id := NewTraceID()
	if !strings.HasPrefix(id, "fb") || len(id) != 16 {
		t.Fatalf("fallback ID = %q, want fb-prefixed 16 chars", id)
	}
	id2 := NewTraceID()
	if id2 == id {
		t.Fatalf("fallback IDs must stay unique, got %q twice", id)
	}

	traceRandom = strings.NewReader("abc") // short read
	if id := NewTraceID(); !strings.HasPrefix(id, "fb") {
		t.Fatalf("short-read ID = %q, want fallback", id)
	}

	traceRandom = old
	id = NewTraceID()
	if len(id) != 16 || strings.HasPrefix(id, "fb") {
		t.Fatalf("normal ID = %q, want 16 hex chars", id)
	}
}

type failReader struct{}

func (failReader) Read([]byte) (int, error) { return 0, errFail }

var errFail = &failErr{}

type failErr struct{}

func (*failErr) Error() string { return "entropy unavailable" }
