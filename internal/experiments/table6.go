package experiments

import (
	"fmt"

	"ppstream/internal/leakage"
	"ppstream/internal/nn"
	"ppstream/internal/obfuscate"
	"ppstream/internal/tensor"
)

// Table6Row is one tensor-length point of the paper's Table VI.
type Table6Row struct {
	Log2Len int
	Dcor    float64
}

// Table6Result holds the leakage table.
type Table6Result struct {
	Trials int
	Rows   []Table6Row
}

// Table6 reproduces Exp#5: distance correlation between before- and
// after-obfuscation tensors versus tensor length 2^5..2^13. As in the
// paper, the measured tensors are the ones the protocol obfuscates —
// linear-stage outputs captured from inference runs of a trained model —
// resampled to each target length (the paper pools tensors of matching
// lengths across its nine models; a single activation-value pool is the
// single-host equivalent). Each (length, trial) permutation is drawn from
// its own fixed seed, so the table is the same on every run; the
// protocol's own permutations stay crypto-random.
func Table6(cfg Config) (*Table6Result, error) {
	cfg = cfg.withDefaults()
	maxLog := 13
	if cfg.Quick {
		maxLog = 10
	}
	pool, err := activationPool("MNIST-2", 1<<maxLog)
	if err != nil {
		return nil, err
	}
	res := &Table6Result{Trials: cfg.Trials}
	trials := max(cfg.Trials, 1)
	for logN := 5; logN <= maxLog; logN++ {
		n := 1 << logN
		t, err := tensor.FromSlice(append([]float64(nil), pool[:n]...), n)
		if err != nil {
			return nil, err
		}
		var sum float64
		for trial := 0; trial < trials; trial++ {
			perm, err := obfuscate.NewSeeded(n, int64(logN)<<32|int64(trial))
			if err != nil {
				return nil, err
			}
			d, err := leakage.MeasureWithPermutation(t, perm)
			if err != nil {
				return nil, err
			}
			sum += d
		}
		res.Rows = append(res.Rows, Table6Row{Log2Len: logN, Dcor: sum / float64(trials)})
	}
	return res, nil
}

// activationPool collects at least n real linear-stage output values by
// running plaintext inference of a trained model over its test set.
func activationPool(model string, n int) ([]float64, error) {
	net, ds, err := preparedModel(model)
	if err != nil {
		return nil, err
	}
	merged, err := nn.Merge(net)
	if err != nil {
		return nil, err
	}
	var pool []float64
	for _, x := range ds.TestX {
		cur := x
		for _, m := range merged {
			out, err := m.Forward(cur)
			if err != nil {
				return nil, err
			}
			if m.Kind == nn.Linear {
				// These are exactly the tensors the model provider
				// obfuscates before returning them.
				pool = append(pool, out.Data()...)
			}
			cur = out
		}
		if len(pool) >= n {
			return pool[:n], nil
		}
	}
	if len(pool) < n {
		return nil, fmt.Errorf("experiments: activation pool has %d values, need %d", len(pool), n)
	}
	return pool[:n], nil
}

// Render formats Table VI.
func (r *Table6Result) Render() string {
	header := []string{"tensor length", "distance correlation"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{fmt.Sprintf("2^%d", row.Log2Len), fmt.Sprintf("%.4f", row.Dcor)})
	}
	return fmt.Sprintf("Table VI (Exp#5): information leakage (mean over %d seeded permutations)\n%s",
		r.Trials, renderTable(header, rows))
}
