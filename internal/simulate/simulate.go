// Package simulate is a deterministic discrete-event latency model for
// PP-Stream pipelines. The reproduction testbed is a single-CPU host, so
// wall-clock multi-core speedups cannot be observed directly; instead,
// the latency experiments profile every merged primitive layer's real
// single-thread execution time (actual Paillier arithmetic on actual
// models) and predict deployment latency with the paper's own cost
// model:
//
//	service_i = T_i / y_i + comm_i · c_elem
//
// where T_i is the profiled stage time, y_i the allocated thread count
// (Section IV-C), comm_i the number of ciphertext elements the stage
// copies to its threads (Section IV-D: the whole tensor per thread
// without partitioning, per-thread sub-tensors with it), and c_elem the
// measured per-element copy cost. Requests flow through the stages with
// the classic pipeline recurrence, so pipelining, bottlenecks, and
// diminishing returns all emerge from the schedule.
//
// DESIGN.md documents this substitution; on a real multi-core cluster
// the same experiments can run in wall-clock mode via the streaming
// engine (core.Engine.InferStream).
//
// Consumers: core.Engine.Simulate (SimStages + Pipeline), which is the
// latency behind `ppbench fig6`–`fig9` and `table7` unless -real is set
// and behind ppinfer's "modelled streaming latency" line; and
// BenchmarkAblationMergedStages / BenchmarkAblationPerLayerStages
// (ablation_bench_test.go, EXPERIMENTS.md's ablation table). Nothing on
// the serving path calls it.
package simulate

import (
	"errors"
	"math/big"
	"sync"
	"time"
)

// Stage models one pipeline stage.
type Stage struct {
	// Name identifies the stage.
	Name string
	// Base is the profiled single-thread execution time per request, in
	// seconds.
	Base float64
	// Threads is the allocated thread count y_i (≥ 1).
	Threads int
	// CommElems is the number of ciphertext elements the stage copies
	// into thread-local views per request (0 if not modelled).
	CommElems int
}

// Service returns the stage's per-request service time given the
// per-element copy cost.
func (s Stage) Service(perElem float64) float64 {
	threads := s.Threads
	if threads < 1 {
		threads = 1
	}
	return s.Base/float64(threads) + float64(s.CommElems)*perElem
}

// Result summarizes a simulated run.
type Result struct {
	// First is the end-to-end latency of the first request.
	First time.Duration
	// Makespan is the completion time of the last request.
	Makespan time.Duration
	// Effective is Makespan / Requests: the steady-state per-request
	// latency the paper's streaming experiments report.
	Effective time.Duration
	// Bottleneck is the largest stage service time.
	Bottleneck time.Duration
}

// Pipeline simulates requests flowing through the stages: stage i starts
// request r when both the previous stage has finished r and this stage
// has finished r−1.
func Pipeline(stages []Stage, requests int, perElem float64) (*Result, error) {
	if len(stages) == 0 {
		return nil, errors.New("simulate: no stages")
	}
	if requests <= 0 {
		return nil, errors.New("simulate: need at least one request")
	}
	service := make([]float64, len(stages))
	bottleneck := 0.0
	for i, s := range stages {
		service[i] = s.Service(perElem)
		if service[i] > bottleneck {
			bottleneck = service[i]
		}
	}
	done := make([]float64, len(stages)) // completion time of previous request per stage
	var first, last float64
	for r := 0; r < requests; r++ {
		prev := 0.0 // completion of this request at the previous stage
		for i := range stages {
			start := prev
			if done[i] > start {
				start = done[i]
			}
			prev = start + service[i]
			done[i] = prev
		}
		if r == 0 {
			first = prev
		}
		last = prev
	}
	return &Result{
		First:      seconds(first),
		Makespan:   seconds(last),
		Effective:  seconds(last / float64(requests)),
		Bottleneck: seconds(bottleneck),
	}, nil
}

// Sequential returns the centralized (no pipelining, single thread per
// stage at the allocated counts) per-request latency: the sum of
// service times.
func Sequential(stages []Stage, perElem float64) time.Duration {
	var sum float64
	for _, s := range stages {
		sum += s.Service(perElem)
	}
	return seconds(sum)
}

func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

var (
	costMu    sync.Mutex
	costCache = map[int]float64{}
)

// PerElementTransferCost measures (once per width) the real cost of
// serializing and deserializing one ciphertext-sized big integer of the
// given bit width — the constant behind the communication term. The
// width should be 2× the key size (ciphertexts live mod n²). In the
// deployed system this is the stage dispatcher's per-element
// serialization work when feeding worker threads/servers, which is what
// tensor partitioning reduces.
func PerElementTransferCost(bits int) float64 {
	if bits < 256 {
		bits = 256
	}
	costMu.Lock()
	defer costMu.Unlock()
	if c, ok := costCache[bits]; ok {
		return c
	}
	src := new(big.Int).Lsh(big.NewInt(1), uint(bits-1))
	src.Sub(src, big.NewInt(12345))
	// Minimum over several trials: the standard noise-robust cost
	// estimator — transient scheduler interference only ever inflates a
	// trial, never deflates it.
	const trials = 5
	const n = 2000
	best := 0.0
	var sink int
	for t := 0; t < trials; t++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			b := src.Bytes()
			round := new(big.Int).SetBytes(b)
			sink += round.BitLen()
		}
		elapsed := time.Since(start).Seconds()
		if t == 0 || elapsed < best {
			best = elapsed
		}
	}
	if sink == 0 {
		best = 0 // unreachable; keeps the loop from being elided
	}
	c := best / n
	costCache[bits] = c
	return c
}
