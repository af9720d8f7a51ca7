package nn

import (
	"fmt"
	"math"
	"math/rand"

	"ppstream/internal/tensor"
)

// TrainConfig controls the SGD trainer. The paper trains its models with
// PyTorch/Matlab; this trainer exists so the accuracy experiments
// (Tables IV/V) are runnable end-to-end without external frameworks.
type TrainConfig struct {
	Epochs       int
	LearningRate float64
	BatchSize    int
	Momentum     float64
	// WeightDecay is the L2 regularization coefficient; it keeps weight
	// magnitudes small, which (besides generalization) is what makes the
	// parameter-scaling accuracy/precision trade-off of Exp#1 visible.
	WeightDecay float64
	Seed        int64
	// Silent suppresses per-epoch progress via the Progress callback.
	Progress func(epoch int, loss float64)
}

// DefaultTrainConfig returns sensible defaults for the small synthetic
// datasets in this repository.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 20, LearningRate: 0.05, BatchSize: 16, Momentum: 0.9, Seed: 1}
}

// Train fits the network to a labelled classification set with
// mini-batch SGD and cross-entropy loss. The final layer must be SoftMax
// (the usual classification head, as in the paper's models).
func Train(n *Network, xs []*tensor.Dense, ys []int, cfg TrainConfig) error {
	if len(xs) == 0 || len(xs) != len(ys) {
		return fmt.Errorf("nn: train needs matching non-empty inputs (%d) and labels (%d)", len(xs), len(ys))
	}
	if cfg.Epochs <= 0 || cfg.LearningRate <= 0 {
		return fmt.Errorf("nn: train needs positive epochs (%d) and learning rate (%g)", cfg.Epochs, cfg.LearningRate)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	last := n.Layers[len(n.Layers)-1]
	if _, ok := last.(*SoftMax); !ok {
		return fmt.Errorf("nn: train requires a SoftMax output layer, got %T", last)
	}
	outShape, err := n.OutputShape()
	if err != nil {
		return err
	}
	classes := outShape.Size()
	for i, y := range ys {
		if y < 0 || y >= classes {
			return fmt.Errorf("nn: label %d at sample %d out of range [0,%d)", y, i, classes)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}

	state := newTrainState(n)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			state.zeroGrads()
			for _, idx := range order[start:end] {
				loss, err := backpropSample(n, state.grads, xs[idx], ys[idx], classes)
				if err != nil {
					return err
				}
				epochLoss += loss
			}
			state.step(n, cfg.LearningRate/float64(end-start), cfg.Momentum, cfg.WeightDecay)
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss/float64(len(xs)))
		}
	}
	return nil
}

// backpropSample runs forward with activation caching, computes the
// cross-entropy loss against the label, and backpropagates, accumulating
// layer i's parameter gradients into grads[i]. The SoftMax+cross-entropy
// pair uses the fused gradient p − onehot(y).
func backpropSample(n *Network, grads [][][]float64, x *tensor.Dense, y, classes int) (float64, error) {
	acts := make([]*tensor.Dense, len(n.Layers)+1)
	acts[0] = x
	for i, l := range n.Layers {
		out, err := l.Forward(acts[i])
		if err != nil {
			return 0, fmt.Errorf("nn: train forward layer %d (%s): %w", i, l.Name(), err)
		}
		acts[i+1] = out
	}
	probs := acts[len(acts)-1]
	p := probs.AtFlat(y)
	loss := -math.Log(math.Max(p, 1e-12))

	// Fused SoftMax + cross-entropy gradient w.r.t. the SoftMax *input*.
	grad := probs.Clone()
	grad.SetFlat(y, grad.AtFlat(y)-1)

	// Backward through layers below the SoftMax head.
	for i := len(n.Layers) - 2; i >= 0; i-- {
		bp, ok := n.Layers[i].(Backprop)
		if !ok {
			return 0, fmt.Errorf("nn: layer %s does not support backprop", n.Layers[i].Name())
		}
		g, err := bp.Backward(acts[i], grad, grads[i])
		if err != nil {
			return 0, fmt.Errorf("nn: train backward layer %d (%s): %w", i, n.Layers[i].Name(), err)
		}
		grad = g
	}
	return loss, nil
}

// trainState is the optimizer state Train owns, indexed like n.Layers and
// then like that layer's Params (nil for a layer without parameters): the
// gradient a batch accumulates and the momentum velocity.
type trainState struct {
	grads, velocity [][][]float64
}

// newTrainState allocates the zeroed gradient and velocity of every
// parameter of n. It is the only place gradient state is allocated.
func newTrainState(n *Network) *trainState {
	s := &trainState{grads: make([][][]float64, len(n.Layers)), velocity: make([][][]float64, len(n.Layers))}
	for i, l := range n.Layers {
		if t, ok := l.(Trainable); ok {
			for _, p := range t.Params() {
				s.grads[i] = append(s.grads[i], make([]float64, p.Size()))
				s.velocity[i] = append(s.velocity[i], make([]float64, p.Size()))
			}
		}
	}
	return s
}

func (s *trainState) zeroGrads() {
	for _, layer := range s.grads {
		for _, g := range layer {
			clear(g)
		}
	}
}

// step applies one momentum SGD update from the accumulated gradients.
func (s *trainState) step(n *Network, lr, momentum, weightDecay float64) {
	for li, l := range n.Layers {
		t, ok := l.(Trainable)
		if !ok {
			continue
		}
		for pi, p := range t.Params() {
			pd, gd, v := p.Data(), s.grads[li][pi], s.velocity[li][pi]
			for i := range pd {
				v[i] = momentum*v[i] - lr*(gd[i]+weightDecay*pd[i])
				pd[i] += v[i]
			}
		}
	}
}

// CalibrateBatchNorm runs a forward pass over the calibration samples and
// sets each BatchNorm layer's frozen statistics from the activations that
// reach it. Call after training (or after building a network whose BN
// layers should whiten real data).
func CalibrateBatchNorm(n *Network, xs []*tensor.Dense) error {
	if len(xs) == 0 {
		return fmt.Errorf("nn: batch-norm calibration needs samples")
	}
	// Activations feeding layer i, for every sample.
	cur := xs
	for _, l := range n.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			if err := bn.Calibrate(cur); err != nil {
				return err
			}
		}
		next := make([]*tensor.Dense, len(cur))
		for si, x := range cur {
			out, err := l.Forward(x)
			if err != nil {
				return err
			}
			next[si] = out
		}
		cur = next
	}
	return nil
}
