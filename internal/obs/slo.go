package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SLO burn-rate engine: declarative objectives evaluated as
// multi-window multi-burn-rate alerts over windowed counters.
//
// Each observed request is classified good or bad per objective. A
// latency objective like "p99=250ms" means "99% of requests finish
// within 250ms", so a request is bad when it is slower than 250ms (or
// failed outright); an availability objective like "avail=99.9" marks
// failed requests bad. The burn rate over a window is
//
//	burn = (bad/total) / (1 - objective)
//
// i.e. how many times faster than budget the error budget is being
// consumed: burn 1 spends exactly the budget, burn 14.4 exhausts a
// 30-day budget in ~2 days. Following the multi-window pattern, the
// fast alert fires when burn ≥ 14.4 in BOTH the 5m and 1h windows
// (page-worthy, recent AND sustained), and the slow alert when burn ≥ 6
// in both the 30m and 6h windows (ticket-worthy). Short CI runs still
// trip the fast alert because all traffic lands inside both windows.
type SLOSpec struct {
	// Name keys the spec: "p99", "p95", "avail", … (lowercase; becomes a
	// slo.<name>.* gauge fragment and JSON key).
	Name string `json:"name"`
	// Objective is the good-fraction target in (0,1), e.g. 0.999.
	Objective float64 `json:"objective"`
	// LatencyTarget, when positive, makes this a latency objective: a
	// request is bad when slower than this. Zero means availability:
	// only failed (errored/shed/expired) requests are bad.
	LatencyTarget time.Duration `json:"latency_target_ns,omitempty"`
}

// ParseSLOSpecs parses the -slo flag syntax: a comma-separated list of
// "p<quantile>=<duration>" latency objectives and "avail=<percent>"
// availability objectives, e.g. "p99=250ms,avail=99.9".
func ParseSLOSpecs(s string) ([]SLOSpec, error) {
	var specs []SLOSpec
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("obs: SLO spec %q is not name=value", part)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		if seen[key] {
			return nil, fmt.Errorf("obs: duplicate SLO spec %q", key)
		}
		seen[key] = true
		switch {
		case key == "avail":
			pct, err := strconv.ParseFloat(val, 64)
			if err != nil || pct <= 0 || pct >= 100 {
				return nil, fmt.Errorf("obs: availability objective %q must be a percentage in (0,100)", val)
			}
			specs = append(specs, SLOSpec{Name: key, Objective: pct / 100})
		case strings.HasPrefix(key, "p"):
			q, err := strconv.ParseFloat(key[1:], 64)
			if err != nil || q <= 0 || q >= 100 {
				return nil, fmt.Errorf("obs: latency quantile %q must be p<percent in (0,100)>", key)
			}
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("obs: latency target %q for %s is not a positive duration", val, key)
			}
			specs = append(specs, SLOSpec{Name: key, Objective: q / 100, LatencyTarget: d})
		default:
			return nil, fmt.Errorf("obs: unknown SLO spec %q (want p<quantile>=<duration> or avail=<percent>)", key)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("obs: empty SLO spec list")
	}
	return specs, nil
}

// The multi-window multi-burn-rate recipe's windows and thresholds.
const (
	sloFastShort = 5 * time.Minute
	sloFastLong  = time.Hour
	sloSlowShort = 30 * time.Minute
	sloSlowLong  = 6 * time.Hour
	sloFastBurn  = 14.4
	sloSlowBurn  = 6.0
)

// SLOConfig configures the engine.
type SLOConfig struct {
	Specs []SLOSpec
	// Registry, when non-nil, receives slo.<name>.* gauges: burn rates
	// (×1000, since gauges are integral) over the fast windows and 0/1
	// alert flags.
	Registry *Registry
}

// sloState tracks one spec's good/bad counts over the longest window.
type sloState struct {
	spec      SLOSpec
	good, bad *ring
}

// SLOEngine classifies request outcomes against each objective and
// evaluates burn-rate alerts. Observe is a few atomic operations per
// spec; Evaluate is read-only and safe to call from gauge callbacks and
// HTTP handlers. A nil engine ignores observations, so callers need no
// "is SLO enabled" branches.
type SLOEngine struct {
	states []*sloState
}

// NewSLOEngine builds an engine for the given specs, registering
// slo.* gauges when cfg.Registry is set.
func NewSLOEngine(cfg SLOConfig) (*SLOEngine, error) {
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("obs: SLO engine needs at least one spec")
	}
	// One-minute slots (a fifth of the shortest window) spanning the
	// longest window.
	const width = sloFastShort / 5
	const slots = int(sloSlowLong/width) + 1
	e := &SLOEngine{}
	seen := map[string]bool{}
	for _, spec := range cfg.Specs {
		if spec.Name == "" || spec.Objective <= 0 || spec.Objective >= 1 {
			return nil, fmt.Errorf("obs: bad SLO spec %+v", spec)
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("obs: duplicate SLO spec %q", spec.Name)
		}
		seen[spec.Name] = true
		e.states = append(e.states, &sloState{
			spec: spec,
			good: newRing(width, slots, false),
			bad:  newRing(width, slots, false),
		})
	}
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	for _, st := range e.states {
		base := "slo." + st.spec.Name
		cfg.Registry.GaugeFunc(base+".burn_short_milli", func() int64 { return int64(st.window(sloFastShort).Burn * 1000) })
		cfg.Registry.GaugeFunc(base+".burn_long_milli", func() int64 { return int64(st.window(sloFastLong).Burn * 1000) })
		cfg.Registry.GaugeFunc(base+".alert.fast", func() int64 { return flag(st.eval().FastAlert) })
		cfg.Registry.GaugeFunc(base+".alert.slow", func() int64 { return flag(st.eval().SlowAlert) })
	}
	return e, nil
}

// Observe classifies one finished request: its latency and whether it
// failed outright (error, shed, deadline expired). Failed requests are
// bad under every objective; slow-but-successful requests are bad under
// latency objectives only. Nil-safe.
func (e *SLOEngine) Observe(latency time.Duration, failed bool) {
	if e == nil {
		return
	}
	for _, st := range e.states {
		if failed || (st.spec.LatencyTarget > 0 && latency > st.spec.LatencyTarget) {
			st.bad.add(1)
		} else {
			st.good.add(1)
		}
	}
}

// SLOWindowBurn is one evaluation window's reading.
type SLOWindowBurn struct {
	Window time.Duration `json:"window_ns"`
	Good   uint64        `json:"good"`
	Bad    uint64        `json:"bad"`
	Burn   float64       `json:"burn"`
}

// SLOStatus is one objective's full evaluation.
type SLOStatus struct {
	Name          string          `json:"name"`
	Objective     float64         `json:"objective"`
	LatencyTarget time.Duration   `json:"latency_target_ns,omitempty"`
	Windows       []SLOWindowBurn `json:"windows"`
	FastAlert     bool            `json:"fast_alert"`
	SlowAlert     bool            `json:"slow_alert"`
}

// window reads one spec's good/bad counts and burn rate over the
// trailing w: burn = (bad/total) / (1 - objective).
func (st *sloState) window(w time.Duration) SLOWindowBurn {
	good, _ := st.good.over(w)
	bad, _ := st.bad.over(w)
	r := SLOWindowBurn{Window: w, Good: good, Bad: bad}
	if total := good + bad; total > 0 {
		r.Burn = (float64(bad) / float64(total)) / (1 - st.spec.Objective)
	}
	return r
}

func (st *sloState) eval() SLOStatus {
	s := SLOStatus{
		Name:          st.spec.Name,
		Objective:     st.spec.Objective,
		LatencyTarget: st.spec.LatencyTarget,
		Windows: []SLOWindowBurn{
			st.window(sloFastShort),
			st.window(sloFastLong),
			st.window(sloSlowShort),
			st.window(sloSlowLong),
		},
	}
	s.FastAlert = s.Windows[0].Burn >= sloFastBurn && s.Windows[1].Burn >= sloFastBurn
	s.SlowAlert = s.Windows[2].Burn >= sloSlowBurn && s.Windows[3].Burn >= sloSlowBurn
	return s
}

// Evaluate returns every objective's current status, sorted by name.
// Nil-safe (returns nil).
func (e *SLOEngine) Evaluate() []SLOStatus {
	if e == nil {
		return nil
	}
	out := make([]SLOStatus, 0, len(e.states))
	for _, st := range e.states {
		out = append(out, st.eval())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
