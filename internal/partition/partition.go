// Package partition implements PP-Stream's tensor partitioning
// (paper Section IV-D). A stage with y threads evenly splits the output
// tensor's elements across threads (output tensor partitioning); for
// convolution operations each thread additionally receives only the
// union of receptive fields its output elements read — a sub-tensor of
// the input — instead of the whole tensor (input tensor partitioning),
// cutting the stage-to-thread communication volume.
//
// Execute materializes each thread's input view as an actual copy of the
// ciphertexts it receives, so the communication saving is physically
// exercised (copied bytes), not just accounted: with partitioning off,
// every thread copies the entire input tensor, as in the paper's
// baseline where "the whole input tensor is fed to each thread". Each
// thread then evaluates its whole output range through one kernel call
// over that view (qnn.ElementOp.ComputeRange), so what the kernel shares
// between rows is shared within a thread exactly as Op.Apply shares it
// within a layer.
package partition

import (
	"fmt"

	"sort"
	"sync"

	"ppstream/internal/paillier"
	"ppstream/internal/qnn"
	"ppstream/internal/tensor"
)

// Range is a half-open output element interval assigned to one thread.
type Range struct {
	Lo, Hi int
}

// Len returns the number of elements in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// SplitOutputs evenly partitions n output elements over t threads; the
// first n%t threads receive one extra element. Empty ranges are omitted,
// so at most min(n,t) tasks return.
func SplitOutputs(n, t int) []Range {
	if n <= 0 || t <= 0 {
		return nil
	}
	if t > n {
		t = n
	}
	base, extra := n/t, n%t
	out := make([]Range, 0, t)
	lo := 0
	for i := 0; i < t; i++ {
		size := base
		if i < extra {
			size++
		}
		if size == 0 {
			continue
		}
		out = append(out, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// Task describes one thread's work for an op: its output range plus the
// input offsets it must receive (nil = the whole input tensor).
type Task struct {
	Range
	// Inputs is the sorted set of flat input offsets this thread needs;
	// nil means the entire input is required.
	Inputs []int
}

// PlanOp computes the per-thread tasks for an op, with or without input
// tensor partitioning. With partitioning enabled, the task's Inputs is
// the union of the op's per-element needs over the thread's range; ops
// that read everything (fully-connected) keep Inputs nil — they support
// only output partitioning, as the paper notes.
func PlanOp(op qnn.ElementOp, in tensor.Shape, threads int, inputPartition bool) ([]Task, error) {
	n, err := op.OutSize(in)
	if err != nil {
		return nil, err
	}
	ranges := SplitOutputs(n, threads)
	tasks := make([]Task, len(ranges))
	for i, r := range ranges {
		tasks[i] = Task{Range: r}
		if !inputPartition {
			continue
		}
		needAll := false
		seen := map[int]bool{}
		for idx := r.Lo; idx < r.Hi && !needAll; idx++ {
			needs := op.InputNeeds(in, idx)
			if needs == nil {
				needAll = true
				break
			}
			for _, off := range needs {
				seen[off] = true
			}
		}
		if needAll {
			continue // whole input
		}
		inputs := make([]int, 0, len(seen))
		for off := range seen {
			inputs = append(inputs, off)
		}
		sort.Ints(inputs)
		tasks[i].Inputs = inputs
	}
	return tasks, nil
}

// CommStats accounts for the stage-to-thread communication of one op
// execution, in ciphertext elements.
type CommStats struct {
	// ElementsSent counts ciphertexts copied into thread-local views.
	ElementsSent int
	// ElementsTotal is threads × input size: what the no-partitioning
	// baseline sends.
	ElementsTotal int
	Threads       int
}

// Saved returns the fraction of communication avoided.
func (c CommStats) Saved() float64 {
	if c.ElementsTotal == 0 {
		return 0
	}
	return 1 - float64(c.ElementsSent)/float64(c.ElementsTotal)
}

// Execute runs one quantized op over threads with the given partitioning
// mode and returns the output ciphertext tensor at exponent
// inExp+op.ScaleSteps(), plus the communication accounting. Each thread
// receives a view of the input elements its task needs.
func Execute(ev *paillier.Evaluator, op qnn.ElementOp, x *paillier.CipherTensor, inExp, threads int, inputPartition bool) (*paillier.CipherTensor, CommStats, error) {
	in := x.Shape()
	tasks, err := PlanOp(op, in, threads, inputPartition)
	if err != nil {
		return nil, CommStats{}, err
	}
	outShape, err := op.OutShape(in)
	if err != nil {
		return nil, CommStats{}, err
	}
	out := tensor.New[*paillier.Ciphertext](outShape...)
	od := out.Data()
	xd := x.Flatten().Data()

	stats := CommStats{Threads: len(tasks), ElementsTotal: len(tasks) * len(xd)}
	var wg sync.WaitGroup
	errCh := make(chan error, len(tasks))
	var statsMu sync.Mutex
	for _, task := range tasks {
		wg.Add(1)
		go func(task Task) {
			defer wg.Done()
			// The thread's input view, indexed by input offset and nil where
			// nothing was sent. Ciphertexts are immutable, so the view shares
			// them with the stage; ElementsSent counts what a thread on
			// another server would have received (the "communication" of
			// Section IV-D).
			view, sent := xd, len(xd)
			if task.Inputs != nil {
				view, sent = make([]*paillier.Ciphertext, len(xd)), len(task.Inputs)
				for _, off := range task.Inputs {
					view[off] = xd[off]
				}
			}
			statsMu.Lock()
			stats.ElementsSent += sent
			statsMu.Unlock()
			// One kernel call per task: whatever it shares between rows is
			// built once over the thread's view for all its elements.
			if err := op.ComputeRange(ev, view, in, task.Lo, task.Hi, inExp, od[task.Lo:task.Hi]); err != nil {
				errCh <- fmt.Errorf("partition: op %s elements [%d,%d): %w", op.Name(), task.Lo, task.Hi, err)
			}
		}(task)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// ExecuteStage runs a sequence of ops through Execute, threading the
// scale exponent and summing communication stats.
func ExecuteStage(ev *paillier.Evaluator, ops []qnn.Op, x *paillier.CipherTensor, inExp, threads int, inputPartition bool) (*paillier.CipherTensor, int, []CommStats, error) {
	cur, exp := x, inExp
	stats := make([]CommStats, 0, len(ops))
	for _, op := range ops {
		eop, ok := op.(qnn.ElementOp)
		if !ok {
			return nil, 0, nil, fmt.Errorf("partition: op %s does not support element-wise execution", op.Name())
		}
		out, st, err := Execute(ev, eop, cur, exp, threads, inputPartition)
		if err != nil {
			return nil, 0, nil, err
		}
		stats = append(stats, st)
		cur = out
		exp += op.ScaleSteps()
	}
	return cur, exp, stats, nil
}
