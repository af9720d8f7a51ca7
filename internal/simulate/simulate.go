// Package simulate is a deterministic discrete-event latency model for
// PP-Stream pipelines. The reproduction testbed is a single-CPU host, so
// wall-clock multi-core speedups cannot be observed directly; instead,
// the latency experiments estimate every merged primitive layer's
// single-thread execution time — its exact Paillier operation count on
// the actual model, priced at unit costs measured on this host
// (core.NewEngine) — and predict deployment latency with the paper's own
// cost model:
//
//	service_i = T_i / y_i + comm_i · c_elem
//
// where T_i is the estimated stage time, y_i the allocated thread count
// (Section IV-C), comm_i the number of ciphertext elements the stage
// copies to its threads (Section IV-D: the whole tensor per thread
// without partitioning, per-thread sub-tensors with it), and c_elem the
// per-element copy cost. Requests flow through the stages with the
// classic pipeline recurrence, so pipelining, bottlenecks, and
// diminishing returns all emerge from the schedule.
//
// The package is a pure model: it measures nothing. Its callers pass
// c_elem in, as paillier.UnitCosts.Transfer — one ciphertext through the
// wire codec's copy out and back, timed in the same sweep
// (backend.MeasureUnitCosts) as every unit cost the stage times are
// priced at.
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
	"time"
)

// Stage models one pipeline stage.
type Stage struct {
	// Name identifies the stage.
	Name string
	// Base is the estimated single-thread execution time per request, in
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

func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
