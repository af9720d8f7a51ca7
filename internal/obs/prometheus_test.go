package obs

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry("ppserver")
	reg.Counter("rounds.served").Add(7)
	reg.Gauge("sessions.active").Add(2)
	reg.GaugeFunc("queue.depth", func() int64 { return 5 })
	h := reg.Histogram("round.linear")
	h.Observe(3 * time.Millisecond)
	h.Observe(5 * time.Millisecond)

	var b strings.Builder
	if err := WritePrometheus(&b, reg); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ppstream_rounds_served counter",
		`ppstream_rounds_served{registry="ppserver"} 7`,
		"# TYPE ppstream_sessions_active gauge",
		`ppstream_sessions_active{registry="ppserver"} 2`,
		`ppstream_queue_depth{registry="ppserver"} 5`,
		"# TYPE ppstream_round_linear_seconds histogram",
		`ppstream_round_linear_seconds_count{registry="ppserver"} 2`,
		`le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// _sum is in seconds: 8ms total.
	if !strings.Contains(out, "_sum{registry=\"ppserver\"} 0.008") {
		t.Errorf("histogram sum not in seconds:\n%s", out)
	}
	// Buckets must be cumulative and end at the total count.
	if strings.Count(out, "ppstream_round_linear_seconds_bucket") != 37 {
		t.Errorf("want 37 buckets (36 bounds + +Inf):\n%s", out)
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"round.0.linear":  "round_0_linear",
		"tcp.bytes_sent":  "tcp_bytes_sent",
		"weird-name/x":    "weird_name_x",
		"0starts.numeric": "_0starts_numeric",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := promEscapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("escape = %q", got)
	}
}

// scanExposition is a strict exposition-format (0.0.4) checker: every
// line must be a well-formed TYPE comment or sample, at most one TYPE
// line may exist per metric name, all of a metric's samples must sit
// contiguously under its TYPE line, histogram buckets must be cumulative
// with the +Inf bucket equal to _count, and metric names must match the
// Prometheus grammar. Returns the ordered family names.
func scanExposition(t *testing.T, out string) []string {
	t.Helper()
	nameRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)
	typeSeen := map[string]bool{}
	closed := map[string]bool{} // families whose sample block has ended
	var families []string
	current := ""
	baseOf := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, suf); b != name && typeSeen[b] {
				return b
			}
		}
		return name
	}
	var bucketCum uint64
	bucketCounts := map[string]uint64{} // family+registry -> +Inf cumulative
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", i+1, line)
			}
			name, typ := parts[2], parts[3]
			if !nameRe.MatchString(name) {
				t.Fatalf("line %d: invalid metric name %q", i+1, name)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown type %q", i+1, typ)
			}
			if typeSeen[name] {
				t.Fatalf("line %d: duplicate TYPE line for %s", i+1, name)
			}
			if current != "" {
				closed[current] = true
			}
			typeSeen[name] = true
			families = append(families, name)
			current = name
			bucketCum = 0
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment: allowed anywhere
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", i+1, line)
		}
		base := baseOf(m[1])
		if base != current {
			if closed[base] {
				t.Fatalf("line %d: sample for %s outside its contiguous family block", i+1, base)
			}
			t.Fatalf("line %d: sample %s has no preceding TYPE line", i+1, m[1])
		}
		if strings.HasSuffix(m[1], "_bucket") && strings.Contains(m[2], "le=") {
			var v uint64
			if _, err := fmt.Sscanf(m[3], "%d", &v); err != nil {
				t.Fatalf("line %d: non-integer bucket count %q", i+1, m[3])
			}
			if strings.Contains(m[2], `le="+Inf"`) {
				bucketCounts[base+m[2][:strings.Index(m[2], ",")]] = v
				bucketCum = 0
			} else {
				if v < bucketCum {
					t.Fatalf("line %d: non-cumulative bucket: %d after %d", i+1, v, bucketCum)
				}
				bucketCum = v
			}
		}
		if strings.HasSuffix(m[1], "_count") && typeSeen[base] {
			var v uint64
			if _, err := fmt.Sscanf(m[3], "%d", &v); err == nil {
				key := base + m[2][:len(m[2])-1]
				if inf, ok := bucketCounts[key]; ok && inf != v {
					t.Fatalf("line %d: +Inf bucket %d != _count %d for %s", i+1, inf, v, key)
				}
			}
		}
	}
	return families
}

// TestWritePrometheusMultiRegistryGrouping is the conformance regression
// for shared metric names: two registries exposing the same counters and
// histograms must yield ONE TYPE line per family with both registries'
// samples contiguous beneath it — the exposition format rejects
// duplicate TYPE lines and split sample blocks.
func TestWritePrometheusMultiRegistryGrouping(t *testing.T) {
	a := NewRegistry("server-a")
	b := NewRegistry("server-b")
	for _, reg := range []*Registry{a, b} {
		reg.Counter("rounds.served").Add(3)
		reg.Gauge("sessions.active").Add(1)
		reg.Histogram("round.linear").Observe(2 * time.Millisecond)
	}
	var buf strings.Builder
	if err := WritePrometheus(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	scanExposition(t, out)
	for _, name := range []string{
		"# TYPE ppstream_rounds_served counter",
		"# TYPE ppstream_sessions_active gauge",
		"# TYPE ppstream_round_linear_seconds histogram",
	} {
		if got := strings.Count(out, name+"\n"); got != 1 {
			t.Errorf("%d TYPE lines for %q, want exactly 1:\n%s", got, name, out)
		}
	}
	for _, want := range []string{
		`ppstream_rounds_served{registry="server-a"} 3`,
		`ppstream_rounds_served{registry="server-b"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing sample %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusTypeConflict(t *testing.T) {
	a := NewRegistry("a")
	a.Counter("queue.depth").Add(1)
	b := NewRegistry("b")
	b.Gauge("queue.depth").Add(4)
	var buf strings.Builder
	err := WritePrometheus(&buf, a, b)
	if err == nil || !strings.Contains(err.Error(), "both") {
		t.Fatalf("cross-registry type conflict not rejected: %v", err)
	}
}

// TestWritePrometheusGolden pins the exact exposition output for a fixed
// registry, so format drift (ordering, spacing, escaping, unit suffixes)
// is a visible diff instead of a silent scrape breakage.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry(`quo"te`)
	reg.Counter("cost.modexps").Add(41)
	reg.Gauge("sessions.active").Add(2)
	var buf strings.Builder
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE ppstream_cost_modexps counter\n" +
		"ppstream_cost_modexps{registry=\"quo\\\"te\"} 41\n" +
		"# TYPE ppstream_sessions_active gauge\n" +
		"ppstream_sessions_active{registry=\"quo\\\"te\"} 2\n"
	if buf.String() != want {
		t.Errorf("golden mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
	scanExposition(t, buf.String())
}

// TestWritePrometheusCostCounters checks the full cost-meter field set
// survives into the Prometheus path with conformant names.
func TestWritePrometheusCostCounters(t *testing.T) {
	reg := NewRegistry("srv")
	AddCostToRegistry(reg, "", CostStats{
		ModExps: 1, MulMods: 2, ModInverses: 3, Rerands: 4, PoolHits: 5,
		PoolMisses: 6, Encrypts: 7, Decrypts: 8, CipherBytesIn: 9, CipherBytesOut: 10,
		Triples: 11, OpenedWords: 12, GCGates: 13, ExtOTs: 14, PlainOps: 15,
	})
	var buf strings.Builder
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	scanExposition(t, out)
	for _, f := range costFields {
		want := "ppstream_cost_" + promName(f.Name)
		if !strings.Contains(out, want+`{registry="srv"}`) {
			t.Errorf("cost field %s missing from Prometheus output as %s:\n%s", f.Name, want, out)
		}
	}
}

func TestRegisterRuntimeMetrics(t *testing.T) {
	reg := NewRegistry("rt")
	RegisterRuntimeMetrics(reg)
	s := reg.Snapshot()
	if s.Gauges["runtime.goroutines"] < 1 {
		t.Errorf("goroutines gauge %d", s.Gauges["runtime.goroutines"])
	}
	if s.Gauges["runtime.heap_alloc_bytes"] <= 0 {
		t.Errorf("heap gauge %d", s.Gauges["runtime.heap_alloc_bytes"])
	}
	if _, ok := s.Gauges["runtime.gc_pause_total_ns"]; !ok {
		t.Error("gc pause gauge missing")
	}
	RegisterRuntimeMetrics(nil) // must not panic
}
