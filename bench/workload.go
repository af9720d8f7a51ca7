package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"ppstream/internal/backend"
	"ppstream/internal/models"
	"ppstream/internal/nn"
	"ppstream/internal/paillier"
	"ppstream/internal/protocol"
	"ppstream/internal/tensor"
)

const (
	// factor is the parameter scaling factor both parties agree on.
	// Weights are the untrained models.Spec.Build() draws, for which 100
	// keeps every activation far inside the smallest key's plaintext ring.
	factor = 100
	// poolSize is how many distinct inputs a run cycles through.
	poolSize = 16
	// warmups is how many requests each set-up sends before measuring, so
	// blinding pools are full and lazily built kernel tables exist.
	warmups = 4
	// oracleKeyBits is the key the expected outputs are computed under.
	// The protocol's integer arithmetic is exact, so the result does not
	// depend on the modulus as long as nothing wraps; the smallest
	// committed key keeps the untimed oracle pass short.
	oracleKeyBits = 256
)

// workload is one set of inputs and serving configuration the benchmark
// runs. The table below is the single definition; BENCHMARK.json repeats
// name and why, and bench_test.go checks the two agree.
type workload struct {
	name string
	why  string
	// model names the models.Spec (Table III row) served.
	model   string
	keyBits int
	// profile and clearBoundary select the per-round backend plan, for
	// both parties.
	profile       backend.Profile
	clearBoundary int
	// engine runs core.Engine.Serve/Submit in-process instead of a
	// protocol session over loopback TCP.
	engine bool
	// setups is how many times an untraced run sets the deployment up:
	// setup_s is the median and the last one serves the measured phase.
	// The Heart set-ups take well under a second, so they repeat more
	// often to be as steady as the multi-second ones.
	setups int
}

var workloads = []workload{
	{
		name:  "heart-seq",
		why:   "Healthcare 3FC at a 1024-bit key, one request at a time: no queueing, negligible wire, time split between client encrypt, server kernel and client decrypt+re-encrypt.",
		model: "Heart", keyBits: 1024, profile: backend.ProfilePrivacyMax, setups: 7,
	},
	{
		name:  "mnist-fc-stream",
		why:   "MNIST 3FC (784 inputs) at 512 bits: 784 input encryptions and the 784x64 round-0 kernel dominate, non-linear work is small, and round 0 alone carries ~100 KB of ciphertext.",
		model: "MNIST-1", keyBits: 512, profile: backend.ProfilePrivacyMax, setups: 3,
	},
	{
		name:  "heart-mixed",
		why:   "Same model and session path as heart-seq under profile mixed (paillier-he, ss-gc, clear): no Paillier past round 0, so backend dispatch, shares and garbling show only here.",
		model: "Heart", keyBits: 1024, profile: backend.ProfileMixed, clearBoundary: 2, setups: 7,
	},
	{
		name:  "conv-engine",
		why:   "MNIST 1Conv+2FC at 256 bits on the in-process core.Engine (ILP placement, tensor partitioning, stream pipeline): the only conv model and the only run of the paper's own runtime.",
		model: "MNIST-2", keyBits: 256, profile: backend.ProfilePrivacyMax, engine: true, setups: 3,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// inputs is what a run feeds the system: the model to build, the key, the
// pool of requests the seed chose, and the output each must produce.
type inputs struct {
	spec     models.Spec
	key      *paillier.PrivateKey
	pool     []*tensor.Dense
	expected []*tensor.Dense
}

// prepare builds the workload's network and key, draws the seed's input
// pool from the model's synthetic test split, and computes the expected
// outputs. None of it is timed.
func prepare(w workload, seed int64) (*inputs, error) {
	spec, err := models.ByName(w.model)
	if err != nil {
		return nil, err
	}
	net, err := spec.Build()
	if err != nil {
		return nil, err
	}
	key, err := testKey(w.keyBits)
	if err != nil {
		return nil, err
	}
	ds, err := spec.Dataset()
	if err != nil {
		return nil, err
	}
	ref, err := newOracle(net)
	if err != nil {
		return nil, err
	}
	// Walk the seed's permutation of the test split, keeping inputs until
	// the pool is full. An input whose reference output the plaintext
	// network does not confirm (see oracle.outputs) is passed over, so the
	// workload holds only requests with a well-defined right answer.
	in := &inputs{spec: spec, key: key}
	order := rand.New(rand.NewSource(seed)).Perm(len(ds.TestX))
	for len(in.pool) < poolSize {
		need := poolSize - len(in.pool)
		if len(order) < need {
			return nil, fmt.Errorf("bench: %s test split ran out of usable inputs", w.model)
		}
		var batch []*tensor.Dense
		for _, i := range order[:need] {
			batch = append(batch, ds.TestX[i])
		}
		order = order[need:]
		outs, err := ref.outputs(batch)
		if err != nil {
			return nil, err
		}
		for i, out := range outs {
			if out != nil {
				in.pool = append(in.pool, batch[i])
				in.expected = append(in.expected, out)
			}
		}
	}
	return in, nil
}

// oracle computes the output every request must reproduce bit for bit:
// the in-process all-Paillier reference walk (protocol.Protocol.Infer) on
// the same input.
type oracle struct {
	net *nn.Network
	ref *protocol.Protocol
	// next numbers the reference walk's requests.
	next uint64
}

func newOracle(net *nn.Network) (*oracle, error) {
	key, err := testKey(oracleKeyBits)
	if err != nil {
		return nil, err
	}
	ref, err := protocol.Build(net, key, protocol.Config{Factor: factor, Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("bench: building oracle protocol: %w", err)
	}
	return &oracle{net: net, ref: ref}, nil
}

// outputs returns the reference output of each input, or nil where the
// reference and nn.Network.Forward disagree on both the ArgMax and
// AllClose(1e-2): quantisation at factor 100 moves a near-tie of the
// untrained weights across either test now and then, and such an input has
// no output to hold the system to. A reference that fails outright is an
// error, not a skip.
func (o *oracle) outputs(xs []*tensor.Dense) ([]*tensor.Dense, error) {
	outs := make([]*tensor.Dense, len(xs))
	errs := make([]error, len(xs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i := range xs {
		o.next++
		wg.Add(1)
		go func(i int, req uint64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outs[i], errs[i] = o.ref.Infer(req, xs[i])
		}(i, o.next)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bench: oracle inference: %w", err)
		}
		plain, err := o.net.Forward(xs[i])
		if err != nil {
			return nil, fmt.Errorf("bench: plaintext forward: %w", err)
		}
		if tensor.ArgMax(plain) != tensor.ArgMax(outs[i]) && !tensor.AllClose(plain, outs[i], 1e-2) {
			outs[i] = nil
		}
	}
	return outs, nil
}

// sameBits reports whether two outputs are identical bit for bit.
func sameBits(a, b *tensor.Dense) bool {
	if a == nil || b == nil || !a.Shape().Equal(b.Shape()) {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if ad[i] != bd[i] {
			return false
		}
	}
	return true
}
