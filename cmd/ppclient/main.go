// Command ppclient is the data provider: it connects to a ppserver,
// establishes a session with its own fresh Paillier key, and runs
// privacy-preserving inferences. Only ciphertexts leave this process;
// the server never sees the inputs or the key.
//
// The -model file provides the network ARCHITECTURE the two parties
// agreed on (layer kinds and shapes); the client never reads linear
// weights from it.
//
// Usage:
//
//	ppclient -model models/Heart.gob -addr 127.0.0.1:7100 -factor 10000 -n 3
//
// The connection speaks wire format v1 (DESIGN.md); client and server must
// be builds of the same wire version, and a mismatch ends the session with
// an "unsupported wire version" error instead of a misparse.
//
// With -concurrency C > 1, C goroutines share the single multiplexed
// session: their round frames interleave on one connection and the
// client prints aggregate throughput alongside per-inference results.
//
// With -profile, the client requests a backend profile (latency,
// privacy-max, mixed); the session runs the stricter of the request and
// the server's policy, and the client validates the announced per-round
// plan before honoring it — a privacy-max client rejects any plan that
// moves a round off Paillier.
//
// With -trace, every inference carries a distributed trace ID; the
// client prints the first request's merged cross-party trace (its own
// spans, the server's spans shipped back in the final round frame, and
// the inferred wire gap per round) plus the per-segment p50/p95/p99
// breakdown across all requests.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"ppstream"
	"ppstream/internal/backend"
	"ppstream/internal/models"
	"ppstream/internal/obs"
	"ppstream/internal/protocol"
	"ppstream/internal/stream"
)

func main() {
	modelPath := flag.String("model", "", "architecture file (required)")
	addr := flag.String("addr", "127.0.0.1:7100", "ppserver address")
	factor := flag.Int64("factor", 10000, "agreed parameter scaling factor")
	keyBits := flag.Int("keybits", 512, "Paillier key size")
	workers := flag.Int("workers", 2, "requested per-stage threads")
	count := flag.Int("n", 3, "number of inferences to run")
	concurrency := flag.Int("concurrency", 1, "concurrent in-flight inferences over the one session")
	trace := flag.Bool("trace", false, "print the merged cross-party trace and per-segment breakdown")
	profile := flag.String("profile", "", "requested backend profile (latency, privacy-max, mixed; empty = privacy-max); the session runs the stricter of this and the server's policy")
	deadline := flag.Duration("deadline", 0, "per-inference deadline budget, propagated to the server on every round frame (0 = none)")
	retries := flag.Int("retries", protocol.DefaultRetryAttempts, "max attempts when the server sheds or throttles a request start")
	flag.Parse()
	if *modelPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	arch, err := ppstream.LoadModel(*modelPath)
	if err != nil {
		log.Fatalf("ppclient: %v", err)
	}
	protocol.RegisterServiceWire()

	key, err := ppstream.GenerateKey(*keyBits)
	if err != nil {
		log.Fatalf("ppclient: %v", err)
	}
	edge, err := stream.DialEdge(*addr)
	if err != nil {
		log.Fatalf("ppclient: %v", err)
	}
	if *concurrency < 1 {
		*concurrency = 1
	}
	ctx := context.Background()
	opts := protocol.ClientOptions{
		Workers:  *workers,
		Window:   *concurrency,
		Deadline: *deadline,
		Retry:    protocol.RetryPolicy{MaxAttempts: *retries},
		Profile:  backend.Profile(*profile),
	}
	client, err := protocol.NewClientOpts(ctx, edge, edge, arch, key, *factor, opts)
	if err != nil {
		log.Fatalf("ppclient: %v", err)
	}
	defer client.Close()

	// Inputs: synthetic samples from the model's Table III dataset when
	// available, zeros otherwise.
	var inputs []*ppstream.Tensor
	if spec, err := models.ByName(arch.ModelName); err == nil {
		if ds, err := spec.Dataset(); err == nil {
			for i := 0; i < *count && i < len(ds.TestX); i++ {
				inputs = append(inputs, ds.TestX[i])
			}
		}
	}
	for len(inputs) < *count {
		inputs = append(inputs, ppstream.NewTensor(arch.InputShape...))
	}

	// All workers share the one multiplexed session; with -concurrency 1
	// this degenerates to the old sequential loop.
	var (
		printMu sync.Mutex
		wg      sync.WaitGroup
		failed  bool
		jobs    = make(chan int)
		trees   = make([]*obs.TraceTree, len(inputs))
	)
	begin := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				start := time.Now()
				var (
					out  *ppstream.Tensor
					tree *obs.TraceTree
					err  error
				)
				if *trace {
					out, tree, err = client.InferTraced(ctx, inputs[i])
				} else {
					out, err = client.Infer(ctx, inputs[i])
				}
				printMu.Lock()
				if err != nil {
					failed = true
					fmt.Fprintf(os.Stderr, "ppclient: inference %d: %v\n", i, err)
				} else {
					trees[i] = tree
					label := ""
					if tree != nil {
						label = " trace " + tree.ID
					}
					fmt.Printf("inference %d: class %d (latency %v, distribution head %v)%s\n",
						i, ppstream.ArgMax(out), time.Since(start).Round(time.Microsecond), head(out.Data()), label)
				}
				printMu.Unlock()
			}
		}()
	}
	for i := range inputs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(begin)
	fmt.Printf("%d inferences at concurrency %d in %v (%.2f req/s)\n",
		len(inputs), *concurrency, elapsed.Round(time.Millisecond),
		float64(len(inputs))/elapsed.Seconds())
	if *trace && !failed {
		fmt.Printf("\nfirst request's merged cross-party trace:\n%s", obs.RenderTree(trees[0]))
		fmt.Printf("\nper-segment breakdown across %d requests:\n%s", len(inputs), obs.RenderBreakdown(obs.Breakdown(trees)))
	}
	if failed {
		client.Close()
		os.Exit(1)
	}
}

func head(vals []float64) []float64 {
	if len(vals) > 5 {
		vals = vals[:5]
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = float64(int(v*1000)) / 1000
	}
	return out
}
