// Package nn implements the neural-network substrate PP-Stream operates
// on: the layer types from the paper's Section II-A (fully-connected,
// convolution, batch normalization, ReLU, Sigmoid, SoftMax, MaxPooling),
// plaintext forward inference, an SGD/backprop trainer (so the accuracy
// experiments are runnable without external frameworks), and the layer
// classification/decomposition/merging machinery of Section IV-B that
// turns a network into alternating linear and non-linear primitive layers.
package nn

import (
	"fmt"
	"math"

	"ppstream/internal/tensor"
)

// Kind classifies a hidden layer by its operations, following the paper's
// Section II-A taxonomy.
type Kind int

const (
	// Linear layers contain only tensor additions and multiplications
	// with model parameters (conv, batch-norm, fully-connected).
	Linear Kind = iota
	// NonLinear layers contain only non-linear activation functions
	// (ReLU, SoftMax) or down-sampling (MaxPool).
	NonLinear
	// Mixed layers contain both, e.g. a parameterized Sigmoid that
	// scales its input with model parameters before the non-linearity.
	Mixed
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Linear:
		return "linear"
	case NonLinear:
		return "non-linear"
	case Mixed:
		return "mixed"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Layer is a neural-network hidden layer. Forward must be safe for
// concurrent use: PP-Stream's pipeline runs the same layer from many
// worker threads.
type Layer interface {
	// Name identifies the layer in logs and plans, e.g. "fc1".
	Name() string
	// Kind reports the paper's linear / non-linear / mixed taxonomy.
	Kind() Kind
	// OutputShape computes the output shape for a given input shape,
	// validating compatibility.
	OutputShape(in tensor.Shape) (tensor.Shape, error)
	// Forward applies the layer to one sample.
	Forward(x *tensor.Dense) (*tensor.Dense, error)
}

// Trainable is implemented by layers with learnable parameters. A layer
// holds only its parameters: the trainer (Train) owns their gradient and
// momentum state.
type Trainable interface {
	Layer
	Params() []*tensor.Dense
}

// Backprop is implemented by layers that support gradient computation.
// Backward receives the layer's forward input x and the loss gradient dy
// with respect to the layer's output, adds each parameter's loss gradient
// into grads — grads[i] runs parallel to Params()[i].Data(); a layer
// without parameters ignores it — and returns the gradient with respect
// to x.
type Backprop interface {
	Layer
	Backward(x, dy *tensor.Dense, grads [][]float64) (*tensor.Dense, error)
}

// ElementWise is implemented by non-linear layers whose function applies
// independently per element and therefore commutes with position
// permutation — the property PP-Stream's obfuscation protocol relies on
// (Section III-C). ReLU and Sigmoid are element-wise; SoftMax and
// MaxPooling are not.
type ElementWise interface {
	Layer
	// ApplyElement computes the activation for a single element.
	ApplyElement(v float64) float64
}

// ElementWiseBound returns the largest magnitude layers, applied in order,
// can produce from elements of magnitude at most in. Every ElementWise
// function here (ReLU, Sigmoid) is monotone, so its extremes over [−b, b]
// sit at the ends: max(|f(b)|, |f(−b)|). A layer that is not element-wise
// has no such bound and yields +Inf.
func ElementWiseBound(layers []Layer, in float64) float64 {
	b := math.Abs(in)
	for _, l := range layers {
		ew, ok := l.(ElementWise)
		if !ok {
			return math.Inf(1)
		}
		b = math.Max(math.Abs(ew.ApplyElement(b)), math.Abs(ew.ApplyElement(-b)))
	}
	return b
}

// Splitter is implemented by mixed layers that can decompose into a
// linear primitive layer followed by a non-linear primitive layer
// (Section IV-B).
type Splitter interface {
	Layer
	Split() (linear Layer, nonlinear Layer)
}
