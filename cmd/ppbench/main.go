// Command ppbench answers the paper's questions: it regenerates the
// evaluation tables and figures (Section VI), runs the two gated serving
// harnesses, and renders the operator views over a running ppserver.
// Performance questions — throughput, latency, per-layer waterfalls,
// per-backend and per-stage costs — belong to bench/ (see BENCHMARK.json),
// which measures them with a pinned processor and paired runs.
//
// Usage:
//
//	ppbench [flags] <subcommand>
//
// The subcommands table below is the one description of what this binary
// does: it drives the usage text (`ppbench` with no arguments prints it
// with the flags), dispatch, and what `all` runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ppstream/internal/experiments"
)

// options carries every flag value to the subcommand that reads it.
type options struct {
	cfg experiments.Config
	// top / traces
	addr  string
	every time.Duration
	iters int
	since string
	minMS float64
	limit int
}

// group orders the usage text and decides what `all` runs.
type group int

const (
	paper group = iota // a table or figure of the paper (plus kernel); run by `all`
	gate               // a serving harness whose exit code is a CI verdict
	view               // an operator view over a running ppserver
)

var groupTitles = []string{
	paper: "paper tables and figures",
	gate:  "gated harnesses (exit code is the verdict)",
	view:  "operator views over a running ppserver",
}

type subcommand struct {
	name  string
	group group
	help  string
	run   func(w io.Writer, o options) error
}

// renderer is what every experiment result offers.
type renderer interface{ Render() string }

// printed adapts an experiment returning (result, error) to a run func.
func printed[R renderer](f func(experiments.Config) (R, error)) func(io.Writer, options) error {
	return func(w io.Writer, o options) error {
		res, err := f(o.cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
		return nil
	}
}

// subcommands is the one ordered list behind usage, dispatch and `all`.
var subcommands = []subcommand{
	{"fig1", paper, "Paillier benchmark vs key size", printed(func(c experiments.Config) (*experiments.Fig1Result, error) {
		bits := []int{256, 512, 1024, 2048}
		if c.Quick {
			bits = []int{256, 512}
		}
		return experiments.Fig1(bits, c.Trials)
	})},
	{"kernel", paper, "linear kernel vs scalar reference: strategy, op counts and speedup per key size (README and EXPERIMENTS.md cite it; not a paper figure)", printed(func(c experiments.Config) (*experiments.KernelResult, error) {
		bits := []int{256, 512, 1024}
		if c.Quick {
			bits = []int{256}
		}
		return experiments.Kernel(bits, c.Trials)
	})},
	{"table3", paper, "dataset/model inventory", func(w io.Writer, _ options) error {
		fmt.Fprint(w, experiments.Table3Render())
		return nil
	}},
	{"table4", paper, "Exp#1: accuracy vs scaling factor (training set)", printed(func(c experiments.Config) (*experiments.AccuracyResult, error) {
		train, _, err := experiments.Tables4And5(c)
		return train, err
	})},
	{"table5", paper, "Exp#1: accuracy vs scaling factor (testing set)", printed(func(c experiments.Config) (*experiments.AccuracyResult, error) {
		_, test, err := experiments.Tables4And5(c)
		return test, err
	})},
	{"fig6", paper, "Exp#1: latency vs scaling factor", printed(experiments.Fig6)},
	{"fig8", paper, "Exp#2: PlainBase/CipherBase/PP-Stream", printed(experiments.Fig8)},
	{"fig7", paper, "Exp#3: load-balanced allocation on/off", printed(experiments.Fig7)},
	{"fig9", paper, "Exp#4: tensor partitioning on/off", printed(experiments.Fig9)},
	{"table6", paper, "Exp#5: obfuscation leakage (distance correlation)", printed(experiments.Table6)},
	{"table7", paper, "Exp#6: comparison with state-of-the-art systems", printed(experiments.Table7)},
	{"chaos", gate, "fault-injection smoke: injected delays/resets plus shed/throttle pressure; fails on lost requests, goroutine leaks or unobserved retries", func(w io.Writer, o options) error {
		res, err := experiments.Chaos(o.cfg)
		// The accounting is printed even when an invariant failed: it is
		// what a red CI run is debugged from.
		if res != nil {
			fmt.Fprint(w, res.Render())
		}
		return err
	}},
	{"swarm", gate, "open-loop Poisson load sweep over a live server: latency-vs-load knee, SLO burn-rate alert, span-store retention, windowed-metric cross-checks", func(w io.Writer, o options) error {
		res, err := experiments.Swarm(o.cfg)
		if res != nil {
			fmt.Fprint(w, res.Render())
		}
		return err
	}},
	{"top", view, "live console view over /metrics and /debug/live (see -addr, -every, -iters)", func(w io.Writer, o options) error {
		return experiments.Top(w, experiments.TopOptions{Addr: o.addr, Every: o.every, Iterations: o.iters})
	}},
	{"traces", view, "list the tail-sampled span store (see -addr, -since, -minms, -limit)", func(w io.Writer, o options) error {
		return experiments.Traces(w, experiments.TracesOptions{Addr: o.addr, Since: o.since, MinMS: o.minMS, Limit: o.limit})
	}},
}

// resolve maps a command-line name to the subcommands it runs: itself,
// or for `all` every paper subcommand in table order.
func resolve(name string) ([]subcommand, bool) {
	var out []subcommand
	for _, sc := range subcommands {
		if sc.name == name || (name == "all" && sc.group == paper) {
			out = append(out, sc)
		}
	}
	return out, len(out) > 0
}

func usage(fs *flag.FlagSet) {
	w := fs.Output()
	fmt.Fprintf(w, "usage: ppbench [flags] <subcommand>\n")
	last := group(-1)
	for _, sc := range subcommands {
		if sc.group != last {
			fmt.Fprintf(w, "\n%s:\n", groupTitles[sc.group])
			last = sc.group
		}
		fmt.Fprintf(w, "  %-8s %s\n", sc.name, sc.help)
	}
	fmt.Fprintf(w, "\n  %-8s every paper table and figure above, in order — not the gates, not the views\n\nflags:\n", "all")
	fs.PrintDefaults()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: 0 on success, 1 when a subcommand
// failed (for a gate: an invariant did not hold), 2 with the usage text
// when the command line names no subcommand this binary has.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("ppbench", flag.ContinueOnError)
	fs.IntVar(&o.cfg.KeyBits, "keybits", 512, "Paillier key size in bits (paper: 2048)")
	fs.IntVar(&o.cfg.Requests, "requests", 8, "streaming batch size for effective-latency runs")
	fs.IntVar(&o.cfg.ProfileReps, "reps", 2, "offline profiling repetitions (paper: 100)")
	fs.IntVar(&o.cfg.Trials, "trials", 3, "trials for statistical measurements")
	fs.BoolVar(&o.cfg.Quick, "quick", false, "restrict to the smallest model subsets (CI mode)")
	fs.BoolVar(&o.cfg.RealTime, "real", false, "wall-clock latency (multi-core hosts) instead of the calibrated model")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7200", "metrics endpoint for top and traces (the ppserver -metrics address)")
	fs.DurationVar(&o.every, "every", 2*time.Second, "poll interval for top")
	fs.IntVar(&o.iters, "iters", 0, "frames to render for top (0 = until interrupted)")
	fs.StringVar(&o.since, "since", "", "for traces: only records from the trailing window (e.g. 10m) or an RFC3339 instant")
	fs.Float64Var(&o.minMS, "minms", 0, "for traces: only requests at least this many milliseconds")
	fs.IntVar(&o.limit, "limit", 0, "for traces: record cap (0 = server default)")
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err != nil {
		// Parse has printed the error and the usage.
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	name := fs.Arg(0)
	todo, ok := resolve(name)
	if !ok {
		fmt.Fprintf(stderr, "ppbench: no subcommand %q\n", name)
		fs.Usage()
		return 2
	}
	for i, sc := range todo {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		start := time.Now()
		if err := sc.run(stdout, o); err != nil {
			fmt.Fprintf(stderr, "ppbench %s: %v\n", sc.name, err)
			return 1
		}
		if sc.group != view {
			fmt.Fprintf(stdout, "\n[%s completed in %v]\n", sc.name, time.Since(start).Round(time.Millisecond))
		}
	}
	return 0
}
