package simulate

import (
	"testing"
	"time"
)

func TestStageService(t *testing.T) {
	s := Stage{Base: 1.0, Threads: 4}
	if got := s.Service(0); got != 0.25 {
		t.Errorf("Service = %v, want 0.25", got)
	}
	// zero threads defends to 1
	s0 := Stage{Base: 1.0}
	if got := s0.Service(0); got != 1.0 {
		t.Errorf("zero-thread Service = %v", got)
	}
	// communication term
	sc := Stage{Base: 1.0, Threads: 2, CommElems: 1000}
	if got := sc.Service(0.001); got != 0.5+1.0 {
		t.Errorf("comm Service = %v, want 1.5", got)
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := Pipeline(nil, 1, 0); err == nil {
		t.Error("empty stages accepted")
	}
	if _, err := Pipeline([]Stage{{Base: 1, Threads: 1}}, 0, 0); err == nil {
		t.Error("zero requests accepted")
	}
}

func TestPipelineSingleRequestIsSum(t *testing.T) {
	stages := []Stage{
		{Base: 1, Threads: 1},
		{Base: 2, Threads: 1},
		{Base: 0.5, Threads: 1},
	}
	res, err := Pipeline(stages, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 3500 * time.Millisecond
	if res.First != want || res.Makespan != want || res.Effective != want {
		t.Errorf("single-request result %+v, want all %v", res, want)
	}
	if res.Bottleneck != 2*time.Second {
		t.Errorf("bottleneck %v", res.Bottleneck)
	}
}

func TestPipelineSteadyStateIsBottleneck(t *testing.T) {
	stages := []Stage{
		{Base: 1, Threads: 1},
		{Base: 3, Threads: 1}, // bottleneck
		{Base: 1, Threads: 1},
	}
	const requests = 100
	res, err := Pipeline(stages, requests, 0)
	if err != nil {
		t.Fatal(err)
	}
	// makespan ≈ fill (5) + (requests−1)·bottleneck (3)
	want := 5.0 + 99*3
	got := res.Makespan.Seconds()
	if got < want-1e-6 || got > want+1e-6 {
		t.Errorf("makespan %v, want %v", got, want)
	}
	// effective latency approaches the bottleneck
	if res.Effective.Seconds() > 3.1 {
		t.Errorf("effective %v, want ≈ bottleneck 3s", res.Effective)
	}
	if res.First.Seconds() != 5 {
		t.Errorf("first %v, want 5s", res.First)
	}
}

func TestThreadsReduceLatency(t *testing.T) {
	mk := func(threads int) []Stage {
		return []Stage{
			{Base: 4, Threads: threads},
			{Base: 2, Threads: threads},
		}
	}
	one, _ := Pipeline(mk(1), 10, 0)
	four, _ := Pipeline(mk(4), 10, 0)
	if four.Effective*3 >= one.Effective {
		t.Errorf("4 threads %v not ≥3× faster than 1 thread %v", four.Effective, one.Effective)
	}
}

func TestCommTermCreatesPartitioningGain(t *testing.T) {
	// Fig 9's mechanism: at high thread counts compute shrinks but the
	// no-partitioning communication term stays, so partitioning wins
	// more with more threads.
	perElem := 1e-6
	withPart := []Stage{{Base: 1, Threads: 16, CommElems: 1_000}}
	withoutPart := []Stage{{Base: 1, Threads: 16, CommElems: 500_000}}
	a, _ := Pipeline(withPart, 10, perElem)
	b, _ := Pipeline(withoutPart, 10, perElem)
	if b.Effective <= a.Effective {
		t.Errorf("no-partitioning %v should exceed partitioning %v", b.Effective, a.Effective)
	}
}
