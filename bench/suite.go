package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runSuite runs every workload o.sets times, each run in a fresh process
// of this same binary — the way the driver runs them, so no number
// depends on what ran earlier in the process (live_heap_mb would). With
// more than one set it then prints, per workload and end-to-end metric,
// every set's value and the widest relative difference between sets
// against the metric's bound: a metric that two runs of identical code
// cannot hold inside its bound is of no use as a regression gate.
func runSuite(ctx context.Context, o options) error {
	if o.sets > 1 && o.trace == 1 {
		return fmt.Errorf("-sets compares untraced runs; drop -trace")
	}
	sets := make([]map[string]*report, o.sets)
	failed := false
	for i := range sets {
		sets[i] = map[string]*report{}
		if o.sets > 1 {
			fmt.Printf("\n== set %d of %d ==\n", i+1, o.sets)
		}
		for _, w := range workloads {
			rep, err := runChild(ctx, w, o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			sets[i][w.name] = rep
			failed = failed || !rep.Correct
		}
	}
	outside := 0
	if o.sets > 1 {
		fmt.Printf("\n== %d sets of the same code, seed %d ==\n", o.sets, o.seed)
		for _, w := range workloads {
			fmt.Printf("%s\n", w.name)
			for _, d := range endToEndMetrics {
				lo, hi := math.Inf(1), math.Inf(-1)
				line := ""
				for i := range sets {
					v := sets[i][w.name].Metrics[d.name].Value
					lo, hi = math.Min(lo, v), math.Max(hi, v)
					line += fmt.Sprintf(" %12.4f", v)
				}
				diff := (hi - lo) / lo
				verdict := "within"
				if diff > d.bound {
					verdict = "OUTSIDE"
					outside++
				}
				fmt.Printf("  %-18s%s %-4s  diff %5.1f%%  bound %4.0f%%  %s\n", d.name, line, d.unit, 100*diff, 100*d.bound, verdict)
			}
		}
	}
	if failed {
		return errFailed
	}
	if outside > 0 {
		return fmt.Errorf("%d metric x workload pairs differ between sets by more than their bound", outside)
	}
	return nil
}

// runChild runs one workload in a child process, passes its output
// through, waits for it to end and returns the result on its last line. A
// child that ran but had failing requests still yields its report.
func runChild(ctx context.Context, w workload, o options) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(o.trace), "-out", o.outDir)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("child printed no result: %w", err)
	}
	return &rep, nil
}
