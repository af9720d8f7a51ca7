package experiments

import (
	"fmt"
	"time"

	"ppstream/internal/baselines"
	"ppstream/internal/models"
)

// Table7Row is one system×model latency entry.
type Table7Row struct {
	System   string
	Model    string
	Latency  time.Duration
	Reported bool // true for published numbers (the paper's * entries)
}

// Table7Result holds Exp#6's comparison.
type Table7Result struct {
	Rows []Table7Row
}

// Table7 reproduces Exp#6: PP-Stream vs state-of-the-art systems on the
// MNIST models. SecureML/CryptoNets/CryptoDL use the numbers reported in
// their publications — exactly as the paper does (its starred entries) —
// while the EzPC-style baseline and PP-Stream are executed.
func Table7(cfg Config) (*Table7Result, error) {
	cfg = cfg.withDefaults()
	names := []string{"MNIST-1", "MNIST-2", "MNIST-3"}
	if cfg.Quick {
		names = []string{"MNIST-1"}
	}
	res := &Table7Result{}
	for _, rep := range baselines.ReportedLatencies() {
		res.Rows = append(res.Rows, Table7Row{
			System:   rep.System,
			Model:    rep.Model,
			Latency:  time.Duration(rep.Seconds * float64(time.Second)),
			Reported: true,
		})
	}
	for _, name := range names {
		net, ds, err := preparedModel(name)
		if err != nil {
			return nil, err
		}
		factor, err := SelectedFactor(name)
		if err != nil {
			return nil, err
		}
		// EzPC-style measured baseline, online phase only.
		ez, err := baselines.NewEzPC(net, 1234)
		if err != nil {
			return nil, err
		}
		_, ezLat, err := ez.Infer(ds.TestX[0])
		if err != nil {
			return nil, fmt.Errorf("experiments: table7 ezpc %s: %w", name, err)
		}
		res.Rows = append(res.Rows, Table7Row{System: "EzPC", Model: name, Latency: ezLat})

		// PP-Stream with all features.
		lat, err := engineLatency(name, factor, 12, true, true, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: table7 ppstream %s: %w", name, err)
		}
		res.Rows = append(res.Rows, Table7Row{System: "PP-Stream", Model: name, Latency: lat})
	}
	return res, nil
}

// Render formats Table VII.
func (r *Table7Result) Render() string {
	header := []string{"system", "model", "latency", "source"}
	var rows [][]string
	for _, row := range r.Rows {
		src := "measured"
		switch {
		case row.Reported:
			src = "reported*"
		case row.System == "EzPC":
			src = "measured, online only†"
		}
		rows = append(rows, []string{row.System, row.Model, row.Latency.String(), src})
	}
	return "Table VII (Exp#6): comparison with state-of-the-art systems\n" +
		renderTable(header, rows) +
		"(* = numbers from the corresponding publications, as in the paper)\n" +
		"(† = Beaver triples come from an in-process dealer, so no offline phase is counted)\n"
}

// Table3Render prints the dataset/model inventory (Table III).
func Table3Render() string {
	header := []string{"dataset", "model", "train", "test", "servers (model/data)", "generated train/test"}
	var rows [][]string
	for _, s := range models.All() {
		rows = append(rows, []string{
			s.Name, s.Arch,
			fmt.Sprint(s.PaperTrain), fmt.Sprint(s.PaperTest),
			fmt.Sprintf("%d / %d", s.ModelServers, s.DataServers),
			fmt.Sprintf("%d / %d", s.TrainCount(), s.TestCount()),
		})
	}
	return "Table III: datasets and models (paper sample counts vs generated synthetic counts)\n" +
		renderTable(header, rows)
}
