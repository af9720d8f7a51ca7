package experiments

import (
	"context"
	"crypto/rand"
	"fmt"
	"strings"
	"sync"
	"time"

	"ppstream/internal/baselines"
	"ppstream/internal/core"
	"ppstream/internal/models"
	"ppstream/internal/paillier"
)

var (
	keyMu   sync.Mutex
	keyPool = map[int]*paillier.PrivateKey{}
)

// sharedKey caches one key per size across experiments.
func sharedKey(bits int) (*paillier.PrivateKey, error) {
	keyMu.Lock()
	defer keyMu.Unlock()
	if k, ok := keyPool[bits]; ok {
		return k, nil
	}
	k, err := paillier.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, err
	}
	keyPool[bits] = k
	return k, nil
}

// topologyFor builds the Table III server layout for a model with the
// given total core budget spread uniformly.
func topologyFor(spec models.Spec, totalCores int) core.Topology {
	n := spec.ModelServers + spec.DataServers
	per := totalCores / n
	if per < 1 {
		per = 1
	}
	return core.Topology{ModelServers: spec.ModelServers, DataServers: spec.DataServers, CoresPerServer: per}
}

// engineLatency builds an engine with the given features and returns the
// streaming effective latency over cfg.Requests requests. By default it
// uses the calibrated discrete-event model over the engine's count-based
// stage costs (this testbed is a single-CPU host — see internal/simulate);
// with cfg.RealTime it measures the concurrent runtime's wall clock,
// which is meaningful on multi-core machines.
func engineLatency(name string, factor int64, totalCores int, lb, part bool, cfg Config) (time.Duration, error) {
	net, ds, err := preparedModel(name)
	if err != nil {
		return 0, err
	}
	spec, err := models.ByName(name)
	if err != nil {
		return 0, err
	}
	key, err := sharedKey(cfg.KeyBits)
	if err != nil {
		return 0, err
	}
	opts := core.Options{
		Factor:          factor,
		Topology:        topologyFor(spec, totalCores),
		LoadBalance:     lb,
		TensorPartition: part,
	}
	eng, err := core.NewEngine(net, key, opts)
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	if cfg.RealTime {
		n := cfg.Requests
		if n > len(ds.TestX) {
			n = len(ds.TestX)
		}
		_, stats, err := eng.InferStream(context.Background(), ds.TestX[:n])
		if err != nil {
			return 0, err
		}
		return stats.EffectiveLatency, nil
	}
	res, err := eng.Simulate(cfg.Requests)
	if err != nil {
		return 0, err
	}
	return res.Effective, nil
}

// Fig6Row is one (model, factor) latency point.
type Fig6Row struct {
	Model   string
	Factors []int64
	Latency []time.Duration
}

// Fig6Result holds the latency-vs-scaling-factor series (Exp#1, Fig 6).
type Fig6Result struct {
	Rows []Fig6Row
}

// Fig6 measures inference latency versus the scaling factor with all
// PP-Stream features enabled, for an MNIST model and a CIFAR-10 model
// (the healthcare models are too small to show differences, as the paper
// notes).
func Fig6(cfg Config) (*Fig6Result, error) {
	cfg = cfg.withDefaults()
	names := []string{"MNIST-2", "CIFAR-10-1"}
	factors := []int64{1, 100, 10_000, 1_000_000}
	if cfg.Quick {
		names = []string{"MNIST-2"}
		factors = []int64{1, 10_000}
	}
	res := &Fig6Result{}
	for _, name := range names {
		row := Fig6Row{Model: name}
		// The VGG models have many more stages (Table III deploys them
		// on 9 servers); give them a matching core budget so every
		// stage gets its constraint-(7) thread.
		cores := 12
		if strings.HasPrefix(name, "CIFAR") {
			cores = 45
		}
		for _, f := range factors {
			lat, err := engineLatency(name, f, cores, true, true, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig6 %s F=%d: %w", name, f, err)
			}
			row.Factors = append(row.Factors, f)
			row.Latency = append(row.Latency, lat)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats Fig 6.
func (r *Fig6Result) Render() string {
	header := []string{"model", "factor", "latency"}
	var rows [][]string
	for _, row := range r.Rows {
		for i := range row.Factors {
			rows = append(rows, []string{row.Model, fmt.Sprint(row.Factors[i]), row.Latency[i].String()})
		}
	}
	return "Fig 6 (Exp#1): inference latency vs scaling factor (all features on)\n" + renderTable(header, rows)
}

// Fig8Row is one model's Fig 8 bar group.
type Fig8Row struct {
	Model      string
	PlainBase  time.Duration
	CipherBase time.Duration
	PPStreamA  time.Duration // smaller core budget (paper: 25)
	PPStreamB  time.Duration // larger core budget (paper: 50)
}

// Fig8Result holds Exp#2's comparison of centralized vs streaming
// execution.
type Fig8Result struct {
	CoresA, CoresB int
	Rows           []Fig8Row
}

// Fig8 reproduces Exp#2: PlainBase (centralized plaintext), CipherBase
// (centralized single-threaded ciphertext), and PP-Stream with two core
// budgets, even core split, load balancing and partitioning disabled —
// isolating the gain of distributed stream processing alone.
func Fig8(cfg Config) (*Fig8Result, error) {
	cfg = cfg.withDefaults()
	names := []string{"Breast", "Heart", "Cardio", "MNIST-1", "MNIST-2", "MNIST-3"}
	coresA, coresB := 12, 24
	if cfg.Quick {
		names = []string{"Heart", "MNIST-1"}
		coresA, coresB = 6, 12
	}
	res := &Fig8Result{CoresA: coresA, CoresB: coresB}
	for _, name := range names {
		net, ds, err := preparedModel(name)
		if err != nil {
			return nil, err
		}
		factor, err := SelectedFactor(name)
		if err != nil {
			return nil, err
		}
		key, err := sharedKey(cfg.KeyBits)
		if err != nil {
			return nil, err
		}
		row := Fig8Row{Model: name}
		_, row.PlainBase, err = baselines.PlainBase(net, ds.TestX[0])
		if err != nil {
			return nil, err
		}
		cb, err := baselines.NewCipherBase(net, key, factor)
		if err != nil {
			return nil, err
		}
		_, row.CipherBase, err = cb.Infer(1, ds.TestX[0])
		if err != nil {
			return nil, err
		}
		row.PPStreamA, err = engineLatency(name, factor, coresA, false, false, cfg)
		if err != nil {
			return nil, err
		}
		row.PPStreamB, err = engineLatency(name, factor, coresB, false, false, cfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats Fig 8.
func (r *Fig8Result) Render() string {
	header := []string{"model", "PlainBase", "CipherBase",
		fmt.Sprintf("PP-Stream-%d", r.CoresA), fmt.Sprintf("PP-Stream-%d", r.CoresB), "reduction vs CipherBase"}
	var rows [][]string
	for _, row := range r.Rows {
		red := 1 - row.PPStreamB.Seconds()/row.CipherBase.Seconds()
		rows = append(rows, []string{
			row.Model, row.PlainBase.String(), row.CipherBase.String(),
			row.PPStreamA.String(), row.PPStreamB.String(), fmt.Sprintf("%.1f%%", red*100),
		})
	}
	return "Fig 8 (Exp#2): distributed stream processing vs centralized baselines\n" + renderTable(header, rows)
}

// SweepRow is one (model, cores) point of a with/without comparison
// (Fig 7 load balancing, Fig 9 partitioning).
type SweepRow struct {
	Model   string
	Cores   int
	Without time.Duration
	With    time.Duration
}

// Reduction returns the latency reduction fraction of the feature.
func (s SweepRow) Reduction() float64 {
	if s.Without == 0 {
		return 0
	}
	return 1 - s.With.Seconds()/s.Without.Seconds()
}

// SweepResult holds a Fig 7 or Fig 9 series.
type SweepResult struct {
	Feature string
	Rows    []SweepRow
}

// Fig7 reproduces Exp#3: latency with and without load-balanced resource
// allocation across a core sweep (partitioning enabled in both, as the
// paper configures).
func Fig7(cfg Config) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	names := []string{"Breast", "Heart", "Cardio", "MNIST-1", "MNIST-2", "MNIST-3"}
	coreSweep := []int{6, 12, 24}
	if cfg.Quick {
		names = []string{"Heart", "MNIST-1"}
		coreSweep = []int{6, 12}
	}
	res := &SweepResult{Feature: "load-balanced allocation"}
	for _, name := range names {
		factor, err := SelectedFactor(name)
		if err != nil {
			return nil, err
		}
		for _, cores := range coreSweep {
			without, err := engineLatency(name, factor, cores, false, true, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig7 %s without: %w", name, err)
			}
			with, err := engineLatency(name, factor, cores, true, true, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig7 %s with: %w", name, err)
			}
			res.Rows = append(res.Rows, SweepRow{Model: name, Cores: cores, Without: without, With: with})
		}
	}
	return res, nil
}

// Fig9 reproduces Exp#4: latency with and without tensor partitioning
// across a core sweep (load balancing enabled in both). Partitioning is an
// accounted effect — it picks which communication volume the simulator
// charges — so with cfg.RealTime both columns run the same executor.
func Fig9(cfg Config) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	names := []string{"Breast", "Heart", "Cardio", "MNIST-1", "MNIST-2", "MNIST-3"}
	coreSweep := []int{6, 12, 24}
	if cfg.Quick {
		names = []string{"MNIST-2"}
		coreSweep = []int{6, 12}
	}
	res := &SweepResult{Feature: "tensor partitioning"}
	for _, name := range names {
		factor, err := SelectedFactor(name)
		if err != nil {
			return nil, err
		}
		for _, cores := range coreSweep {
			without, err := engineLatency(name, factor, cores, true, false, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig9 %s without: %w", name, err)
			}
			with, err := engineLatency(name, factor, cores, true, true, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig9 %s with: %w", name, err)
			}
			res.Rows = append(res.Rows, SweepRow{Model: name, Cores: cores, Without: without, With: with})
		}
	}
	return res, nil
}

// Render formats a with/without sweep.
func (r *SweepResult) Render() string {
	label := "Fig 7 (Exp#3)"
	if r.Feature == "tensor partitioning" {
		label = "Fig 9 (Exp#4)"
	}
	header := []string{"model", "cores", "without", "with", "reduction"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Model, fmt.Sprint(row.Cores), row.Without.String(), row.With.String(),
			fmt.Sprintf("%.1f%%", row.Reduction()*100),
		})
	}
	return fmt.Sprintf("%s: latency with vs without %s\n%s", label, r.Feature, renderTable(header, rows))
}
