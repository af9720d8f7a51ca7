// Command pptrain trains the paper's Table III models on their synthetic
// datasets and saves them in gob format, so cmd/ppinfer and external
// deployments can load them without retraining.
//
// Usage:
//
//	pptrain [-out DIR] [-model NAME]
//
// With no -model it trains all nine models.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ppstream"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, trains and saves the models and returns the exit code:
// 2 for a bad command line (an unknown -model among them, checked before
// anything is trained or written), 1 when training or saving fails, 0
// otherwise. Progress goes to stdout, errors and the usage text to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pptrain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	outDir := fs.String("out", "models", "output directory for trained models")
	modelName := fs.String("model", "", "train a single Table III model (default: all nine)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	specs := ppstream.Models()
	if *modelName != "" {
		spec, err := ppstream.ModelByName(*modelName)
		if err != nil {
			fmt.Fprintf(stderr, "pptrain: %v\n", err)
			return 2
		}
		specs = []ppstream.ModelSpec{spec}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "pptrain: %v\n", err)
		return 1
	}
	for _, spec := range specs {
		if err := train(spec, *outDir, stdout); err != nil {
			fmt.Fprintf(stderr, "pptrain %s: %v\n", spec.Name, err)
			return 1
		}
	}
	return 0
}

// train trains one model, saves it as outDir/<name>.gob and reports its
// accuracy on stdout.
func train(spec ppstream.ModelSpec, outDir string, stdout io.Writer) error {
	start := time.Now()
	net, ds, err := ppstream.PrepareModel(spec)
	if err != nil {
		return err
	}
	trainAcc, err := net.Accuracy(ds.TrainX, ds.TrainY)
	if err != nil {
		return err
	}
	testAcc, err := net.Accuracy(ds.TestX, ds.TestY)
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, spec.Name+".gob")
	if err := ppstream.SaveModel(net, path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-12s %-10s train %.2f%%  test %.2f%%  %d params  -> %s (%v)\n",
		spec.Name, spec.Arch, trainAcc*100, testAcc*100, net.ParamCount(), path,
		time.Since(start).Round(time.Millisecond))
	return nil
}
