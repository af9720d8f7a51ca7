// Command ppinfer runs one privacy-preserving inference end-to-end: it
// loads a trained model (from cmd/pptrain), generates a data-provider
// key, selects the scaling factor, builds the PP-Stream engine, and
// infers either a synthetic sample or a comma-separated input vector.
//
// Usage:
//
//	ppinfer -model models/Heart.gob [-keybits 512] [-cores 8] [-input 1.2,0.3,...]
//
// With -stream N, it additionally runs N requests through the engine's
// serving runtime and prints the measured per-segment latency percentile
// table of their traces (p50/p95/p99).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ppstream"
	"ppstream/internal/models"
	"ppstream/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the inference and returns the exit code: 2 for a
// bad command line (no -model among them), 1 when loading, planning or
// inference fails, 0 otherwise. Results go to stdout, errors and the usage
// text to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppinfer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelPath := fs.String("model", "", "path to a trained model (required)")
	keyBits := fs.Int("keybits", 512, "Paillier key size")
	cores := fs.Int("cores", 8, "total cores across the deployment")
	inputCSV := fs.String("input", "", "comma-separated input values (default: a synthetic test sample)")
	streamN := fs.Int("stream", 0, "also stream N requests through the pipeline and print per-stage percentiles")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *modelPath == "" {
		fmt.Fprintln(stderr, "ppinfer: -model is required")
		fs.Usage()
		return 2
	}
	if err := infer(stdout, *modelPath, *keyBits, *cores, *inputCSV, *streamN); err != nil {
		fmt.Fprintf(stderr, "ppinfer: %v\n", err)
		return 1
	}
	return 0
}

func infer(stdout io.Writer, modelPath string, keyBits, cores int, inputCSV string, streamN int) error {
	net, err := ppstream.LoadModel(modelPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "model %s: input %v, %d parameters\n", net.ModelName, net.InputShape, net.ParamCount())

	// Input: parsed vector or a fresh synthetic sample matching the
	// model's Table III dataset.
	var x *ppstream.Tensor
	var xs []*ppstream.Tensor
	var ys []int
	if inputCSV != "" {
		vals, err := parseCSV(inputCSV)
		if err != nil {
			return err
		}
		x, err = ppstream.TensorFromSlice(vals, net.InputShape...)
		if err != nil {
			return err
		}
	}
	if spec, err := models.ByName(net.ModelName); err == nil {
		ds, err := spec.Dataset()
		if err != nil {
			return err
		}
		if x == nil {
			x = ds.TestX[0]
		}
		n := 20
		if n > len(ds.TrainX) {
			n = len(ds.TrainX)
		}
		xs, ys = ds.TrainX[:n], ds.TrainY[:n]
	}
	if x == nil {
		return fmt.Errorf("model %q is not in the Table III registry; provide -input", net.ModelName)
	}

	key, err := ppstream.GenerateKey(keyBits)
	if err != nil {
		return err
	}
	factor := int64(10000)
	if xs != nil {
		sel, err := ppstream.SelectScalingFactor(net, xs, ys)
		if err != nil {
			return err
		}
		factor = sel.Factor
		fmt.Fprintf(stdout, "selected scaling factor: 10^%d (accuracy %.2f%% vs original %.2f%%)\n",
			sel.Exponent, sel.ScaledAccuracy*100, sel.OriginalAccuracy*100)
	}

	spec, specErr := models.ByName(net.ModelName)
	topo := ppstream.Topology{ModelServers: 1, DataServers: 1, CoresPerServer: cores / 2}
	if specErr == nil {
		n := spec.ModelServers + spec.DataServers
		per := cores / n
		if per < 1 {
			per = 1
		}
		topo = ppstream.Topology{ModelServers: spec.ModelServers, DataServers: spec.DataServers, CoresPerServer: per}
	}
	eng, err := ppstream.NewEngine(net, key, ppstream.Options{
		Factor:          factor,
		Topology:        topo,
		LoadBalance:     true,
		TensorPartition: true,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	if report, err := eng.Report(); err == nil {
		fmt.Fprintln(stdout, "deployment plan:")
		for _, r := range report {
			kind := "non-linear"
			if r.Linear {
				kind = "linear"
			}
			fmt.Fprintf(stdout, "  %-40s %-10s %-9s threads=%d est. T=%.2fms\n",
				r.Name, kind, r.Server, r.Threads, r.Time*1000)
		}
	}

	plain, err := net.Forward(x)
	if err != nil {
		return err
	}
	out, latency, err := eng.InferOne(1, x)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "privacy-preserving inference: class %d (latency %v)\n", ppstream.ArgMax(out), latency)
	fmt.Fprintf(stdout, "plaintext reference:          class %d\n", ppstream.ArgMax(plain))
	fmt.Fprintf(stdout, "output distribution: %v\n", truncated(out.Data()))
	if sim, err := eng.Simulate(8); err == nil {
		fmt.Fprintf(stdout, "modelled streaming latency at %d cores: %v/request (bottleneck %v)\n",
			topo.TotalCores(), sim.Effective, sim.Bottleneck)
	}
	if streamN > 0 {
		inputs := make([]*ppstream.Tensor, streamN)
		for i := range inputs {
			inputs[i] = x
		}
		_, stats, err := eng.InferStream(context.Background(), inputs)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nstreamed %d requests: makespan %v, effective latency %v/request\n",
			stats.Requests, stats.Makespan, stats.EffectiveLatency)
		fmt.Fprint(stdout, obs.RenderBreakdown(obs.Breakdown(stats.Traces)))
	}
	return nil
}

func parseCSV(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing input element %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

func truncated(vals []float64) []float64 {
	if len(vals) > 10 {
		vals = vals[:10]
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = float64(int(v*10000)) / 10000
	}
	return out
}
