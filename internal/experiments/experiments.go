// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI). Each experiment is a function returning typed
// rows plus a Render method producing the same series the paper reports;
// cmd/ppbench drives these. The package also holds ppbench's two gated
// serving harnesses (chaos, swarm) and its operator views (top, traces).
// Performance measurement is not here: bench/ owns it.
//
// Absolute numbers differ from the paper's 9-server Xeon testbed (this
// is a pure-Go reproduction on one host); EXPERIMENTS.md records the
// expected *shapes* and the measured results side by side.
package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"ppstream/internal/dataset"
	"ppstream/internal/models"
	"ppstream/internal/nn"
)

// Config tunes experiment cost. Zero values select CI-friendly defaults;
// cmd/ppbench exposes flags for paper-scale runs.
type Config struct {
	// KeyBits is the Paillier key size for latency experiments
	// (default 512; the paper uses 2048).
	KeyBits int
	// Requests is the streaming batch size for effective-latency
	// measurements (default 4).
	Requests int
	// Trials is how many random permutations Table6 averages its leakage
	// over (default 3).
	Trials int
	// Quick restricts model sets to the smallest representatives so the
	// whole suite completes in CI time.
	Quick bool
	// RealTime measures wall-clock latency with the concurrent runtime
	// instead of the calibrated discrete-event model. Only meaningful on
	// multi-core hosts; this reproduction's default testbed has one CPU,
	// where parallel speedups can only be modelled (see
	// internal/simulate and DESIGN.md).
	RealTime bool
}

func (c Config) withDefaults() Config {
	if c.KeyBits == 0 {
		c.KeyBits = 512
	}
	if c.Requests == 0 {
		c.Requests = 4
	}
	if c.Trials == 0 {
		c.Trials = 3
	}
	return c
}

// prepared caches trained models so Table IV, Table V, Fig 6–9 and
// Table VII share one training run per model.
type prepared struct {
	net *nn.Network
	ds  *dataset.Dataset
}

var (
	cacheMu    sync.Mutex
	modelCache = map[string]*prepared{}
)

// preparedModel trains (or returns the cached) Table III model.
func preparedModel(name string) (*nn.Network, *dataset.Dataset, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if p, ok := modelCache[name]; ok {
		return p.net, p.ds, nil
	}
	spec, err := models.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	net, ds, err := models.Prepare(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: preparing %s: %w", name, err)
	}
	modelCache[name] = &prepared{net: net, ds: ds}
	return net, ds, nil
}

// renderTable formats rows as an aligned text table.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// seconds converts a paillier.Sweep unit, in seconds, to a duration.
func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
