// Command bench is the repository's benchmark: four serving workloads,
// end-to-end metrics measured with tracing off, and a separate traced
// pass that times each layer from outside. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ppstream/internal/protocol"
)

// defaultSeconds is how long a run measures unless told otherwise; it
// matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	sets     int
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload in this process and end with the one-line JSON result (default: all four, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "chooses the input pool and the request order")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "how long each run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass (per-layer metrics) instead of the untraced one (end-to-end metrics)")
	flag.IntVar(&o.sets, "sets", 1, "run the untraced suite this many times and compare the sets against the bounds")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for trace_<workload>.json")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := confineToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: confining the process to one processor:", err)
		os.Exit(1)
	}
	if err := run(context.Background(), o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailed marks a run in which some request errored or answered wrong.
var errFailed = errors.New("requests failed (fail_share > 0)")

func run(ctx context.Context, o options) error {
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 || o.sets < 1 {
		return errors.New("bad flag value")
	}
	if o.workload == "" {
		return runSuite(ctx, o)
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	protocol.RegisterServiceWire()
	fmt.Println(hostShape())
	b := budget{duration: time.Duration(o.seconds) * time.Second}
	rep, err := runOne(ctx, w, o, b)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return errFailed
	}
	return nil
}

// report is the one-line result the driver reads.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func reportOf(t tally, correct bool, defs []metricDef, values map[string]float64) *report {
	r := &report{Correct: correct, Attempted: t.sent, Failed: t.failed(), Metrics: map[string]metricValue{}}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// runOne runs one workload once, traced or not, and prints its table.
func runOne(ctx context.Context, w workload, o options, b budget) (*report, error) {
	in, err := prepare(w, o.seed)
	if err != nil {
		return nil, err
	}
	if o.trace == 1 {
		return runTraced(ctx, w, in, o, b)
	}
	e, err := runEndToEnd(ctx, w, in, o.seed, b)
	if err != nil {
		return nil, err
	}
	printEndToEnd(e)
	return reportOf(e.tally, e.tally.failed() == 0 && e.tally.sent > 0, endToEndMetrics, e.metrics), nil
}

func printTally(phase string, t tally) {
	fmt.Printf("  %-22s sent %d  succeeded %d  wrong %d  errored %d\n", phase, t.sent, t.succeeded, t.wrong, t.errored)
}

func printEndToEnd(e *endToEnd) {
	fmt.Printf("\n%s  (untraced)\n", e.workload.name)
	printTally("measured", e.tally)
	if e.firstErr != nil {
		fmt.Printf("  first error: %v\n", e.firstErr)
	}
	for _, d := range endToEndMetrics {
		note := ""
		if d.name == "throughput_rps" || d.name == "latency_p50_ms" {
			note = fmt.Sprintf("  (median of %d groups, N = %d)", min(timeGroups, e.n), e.n)
		}
		fmt.Printf("  %-22s %12.4f %-4s%s\n", d.name, e.metrics[d.name], d.unit, note)
	}
	fmt.Printf("  %-22s %12.4f %-4s  (not bounded; the traced pass reports serve.latency_p90_ms)\n", "latency_p90_ms", e.p90, "ms")
	fmt.Printf("  as clocked:            throughput %.4f 1/s  p50 %.4f ms  p90 %.4f ms  (host %.3f x slower than usual)\n",
		e.asClocked.rps, e.asClocked.p50, e.asClocked.p90, e.slowdown)
	fmt.Printf("  %-22s %12.1f %-4s\n", "wire_bytes_per_req", e.wireBytesPerReq, "B")
	fmt.Printf("  %-22s %12.4f\n", "fail_share", float64(e.tally.failed())/float64(e.tally.sent))
}

// host records the shape of the machine a number was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// commit is the revision the binary was built from. run.sh sets it with
// -ldflags "-X main.commit=..."; a build that does not (go run, go test, a
// checkout that is not a git repository) reports "unknown".
var commit = "unknown"

func hostInfo() host {
	return host{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit}
}

func hostShape() string {
	h := hostInfo()
	return fmt.Sprintf("host: nproc %d  GOMAXPROCS %d  %s  commit %s", h.NProc, h.GoMaxProcs, h.GoVersion, h.Commit)
}
