package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text-format exposition (version 0.0.4) alongside the JSON
// snapshot, so a standard Prometheus scrape job can pull the same
// registries cmd tools read as JSON. Metric names are prefixed with
// "ppstream_" and sanitized (dots → underscores); the owning registry's
// name rides in a "registry" label so several registries can share one
// endpoint. Durations are exported in seconds, Prometheus convention.

// promName sanitizes a registry metric name into a Prometheus metric
// name component.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscapeLabel escapes a label value per the exposition format.
func promEscapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// promFamily is one metric family: a single # TYPE line followed by
// every registry's samples for that metric name. The exposition format
// allows at most one TYPE line per metric name and requires all of a
// metric's samples to be contiguous, so families are collected across
// registries before anything is written.
type promFamily struct {
	typ   string // "counter", "gauge", or "histogram"
	lines []string
}

// WritePrometheus renders every registry in Prometheus text format.
// Counters and gauges map directly; each latency histogram becomes a
// Prometheus histogram with cumulative le-buckets in seconds plus _sum
// and _count series. Samples from different registries sharing a metric
// name are grouped under one # TYPE line (distinguished by the registry
// label); exposing one name with conflicting types is an error — the
// scrape would be rejected — and is reported instead of emitted.
func WritePrometheus(w io.Writer, regs ...*Registry) error {
	fams := map[string]*promFamily{}
	add := func(name, typ string, lines ...string) error {
		f, ok := fams[name]
		if !ok {
			fams[name] = &promFamily{typ: typ, lines: lines}
			return nil
		}
		if f.typ != typ {
			return fmt.Errorf("obs: metric %s exposed as both %s and %s across registries", name, f.typ, typ)
		}
		f.lines = append(f.lines, lines...)
		return nil
	}
	for _, r := range regs {
		if err := r.collectPrometheus(add); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := io.WriteString(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// collectPrometheus renders the registry's samples into family lines via
// add, holding the registry lock only while reading. A metric with a live
// view also exports its trailing window as gauges under a "live" prefix:
// the count and, for histograms, interpolated quantiles in seconds.
// Gauges (not summaries) keep the exposition inside the strict 0.0.4 type
// set — a trailing-window reading is a point-in-time value.
func (r *Registry) collectPrometheus(add func(name, typ string, lines ...string) error) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	// promEscapeLabel already produces exposition-format escaping; %q
	// would escape the escapes (registry="quo\\\"te"), so build the label
	// with plain quoting.
	label := `{registry="` + promEscapeLabel(r.name) + `"}`
	one := func(metric, typ string, v any) error {
		return add(metric, typ, fmt.Sprintf("%s%s %v\n", metric, label, v))
	}
	for _, name := range sortedKeys(r.counters) {
		c := r.counters[name]
		if err := one("ppstream_"+promName(name), "counter", c.Value()); err != nil {
			return err
		}
		if w := c.live.Load(); w != nil {
			if err := one("ppstream_live_"+promName(name), "gauge", w.snapshot().Count); err != nil {
				return err
			}
		}
	}

	names := sortedKeys(r.gauges)
	for name := range r.gaugeFuncs {
		if _, shadowed := r.gauges[name]; !shadowed {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		var v int64
		if g, ok := r.gauges[name]; ok {
			v = g.Value()
		} else {
			v = r.gaugeFuncs[name]()
		}
		if err := one("ppstream_"+promName(name), "gauge", v); err != nil {
			return err
		}
	}

	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		m := "ppstream_" + promName(name) + "_seconds"
		if err := add(m, "histogram", h.promLines(m, r.name)...); err != nil {
			return err
		}
		w := h.live.Load()
		if w == nil {
			continue
		}
		snap := w.snapshot()
		base := "ppstream_live_" + promName(name)
		for _, s := range []struct {
			suffix string
			v      any
		}{
			{"_count", snap.Count},
			{"_p50_seconds", snap.P50.Seconds()},
			{"_p95_seconds", snap.P95.Seconds()},
			{"_p99_seconds", snap.P99.Seconds()},
		} {
			if err := one(base+s.suffix, "gauge", s.v); err != nil {
				return err
			}
		}
	}
	return nil
}

// promLines renders the histogram's cumulative buckets as exposition
// lines. Bounds are converted from nanoseconds to seconds; the overflow
// bucket maps to le="+Inf".
func (h *Histogram) promLines(metric, registry string) []string {
	reg := promEscapeLabel(registry)
	lines := make([]string, 0, len(h.buckets)+2)
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(defaultBounds) {
			le = fmt.Sprintf("%g", float64(defaultBounds[i])/1e9)
		}
		lines = append(lines, fmt.Sprintf("%s_bucket{registry=\"%s\",le=\"%s\"} %d\n", metric, reg, le, cum))
	}
	lines = append(lines,
		fmt.Sprintf("%s_sum{registry=\"%s\"} %g\n", metric, reg, float64(h.sum.Load())/1e9),
		fmt.Sprintf("%s_count{registry=\"%s\"} %d\n", metric, reg, h.count.Load()))
	return lines
}
