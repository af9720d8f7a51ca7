package nn

import (
	"fmt"
	"math"

	"ppstream/internal/tensor"
)

// Network is an ordered sequence of hidden layers plus metadata. The
// first layer receives the raw input tensor; the last layer's output is
// the inference result (paper Section II-A).
type Network struct {
	ModelName  string
	InputShape tensor.Shape
	Layers     []Layer
	// InputMax declares the network's input domain in real units: every
	// input element satisfies |x| ≤ InputMax. The protocol sizes its reply
	// slots from it and the data provider refuses inputs outside it. Zero
	// means undeclared: any input whose scaled value fits int64.
	InputMax float64
}

// NewNetwork creates a network and validates that the layer shapes chain
// correctly from the given input shape.
func NewNetwork(name string, input tensor.Shape, layers ...Layer) (*Network, error) {
	n := &Network{ModelName: name, InputShape: input.Clone(), Layers: layers}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// Validate checks the shape chain across all layers.
func (n *Network) Validate() error {
	if err := n.InputShape.Validate(); err != nil {
		return err
	}
	if len(n.Layers) == 0 {
		return fmt.Errorf("nn: network %q has no layers", n.ModelName)
	}
	if !(n.InputMax >= 0) || math.IsInf(n.InputMax, 0) {
		return fmt.Errorf("nn: network %q declares input domain ±%v", n.ModelName, n.InputMax)
	}
	shape := n.InputShape
	for i, l := range n.Layers {
		out, err := l.OutputShape(shape)
		if err != nil {
			return fmt.Errorf("nn: network %q layer %d (%s): %w", n.ModelName, i, l.Name(), err)
		}
		shape = out
	}
	return nil
}

// OutputShape returns the network's final output shape.
func (n *Network) OutputShape() (tensor.Shape, error) {
	shape := n.InputShape
	for _, l := range n.Layers {
		out, err := l.OutputShape(shape)
		if err != nil {
			return nil, err
		}
		shape = out
	}
	return shape, nil
}

// Forward runs plaintext inference on one sample. This is the reference
// the privacy-preserving protocol must match bit-for-bit up to parameter
// scaling (the paper's correctness guarantee, Section II-C).
func (n *Network) Forward(x *tensor.Dense) (*tensor.Dense, error) {
	if !x.Shape().Equal(n.InputShape) {
		return nil, fmt.Errorf("nn: network %q expects input %v, got %v", n.ModelName, n.InputShape, x.Shape())
	}
	cur := x
	for i, l := range n.Layers {
		out, err := l.Forward(cur)
		if err != nil {
			return nil, fmt.Errorf("nn: network %q layer %d (%s): %w", n.ModelName, i, l.Name(), err)
		}
		cur = out
	}
	return cur, nil
}

// Predict returns the argmax class of the network's output.
func (n *Network) Predict(x *tensor.Dense) (int, error) {
	out, err := n.Forward(x)
	if err != nil {
		return 0, err
	}
	return tensor.ArgMax(out), nil
}

// Accuracy evaluates classification accuracy over a labelled set. With
// two classes this equals the paper's (TP+TN)/(TP+TN+FP+FN) definition
// (Section IV-A); with k classes it is the usual top-1 generalization.
func (n *Network) Accuracy(xs []*tensor.Dense, ys []int) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("nn: accuracy needs matching inputs (%d) and labels (%d)", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return 0, fmt.Errorf("nn: accuracy over empty set")
	}
	correct := 0
	for i, x := range xs {
		pred, err := n.Predict(x)
		if err != nil {
			return 0, err
		}
		if pred == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs)), nil
}

// Params returns all trainable parameter tensors across layers.
func (n *Network) Params() []*tensor.Dense {
	var out []*tensor.Dense
	for _, l := range n.Layers {
		if t, ok := l.(Trainable); ok {
			out = append(out, t.Params()...)
		}
	}
	return out
}

// ParamCount returns the total number of scalar parameters.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Size()
	}
	return total
}

// Clone deep-copies the network, duplicating all parameter tensors so the
// copy can be mutated (e.g. by parameter scaling) without affecting the
// original.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = cloneLayer(l)
	}
	return &Network{ModelName: n.ModelName, InputShape: n.InputShape.Clone(), Layers: layers, InputMax: n.InputMax}
}

func cloneLayer(l Layer) Layer {
	switch v := l.(type) {
	case *FC:
		return &FC{LayerName: v.LayerName, W: v.W.Clone(), B: v.B.Clone()}
	case *Conv:
		return &Conv{LayerName: v.LayerName, P: v.P, W: v.W.Clone(), B: v.B.Clone()}
	case *BatchNorm:
		return &BatchNorm{LayerName: v.LayerName, Channels: v.Channels, Eps: v.Eps,
			Gamma: v.Gamma.Clone(), Beta: v.Beta.Clone(), Mean: v.Mean.Clone(), Var: v.Var.Clone()}
	case *ReLU:
		return &ReLU{LayerName: v.LayerName}
	case *Sigmoid:
		return &Sigmoid{LayerName: v.LayerName}
	case *SoftMax:
		return &SoftMax{LayerName: v.LayerName}
	case *MaxPool:
		return &MaxPool{LayerName: v.LayerName, Window: v.Window, Stride: v.Stride}
	case *Flatten:
		return &Flatten{LayerName: v.LayerName}
	case *ScaledSigmoid:
		return &ScaledSigmoid{LayerName: v.LayerName, Scale: v.Scale.Clone()}
	case *ElemScale:
		return &ElemScale{LayerName: v.LayerName, Scale: v.Scale.Clone()}
	default:
		panic(fmt.Sprintf("nn: cloneLayer: unknown layer type %T", l))
	}
}

// ReplaceMaxPool rewrites every MaxPool layer into a stride-2 convolution
// followed by ReLU, the substitution the paper cites from Springenberg et
// al. (Section III-C). The convolution averages the pooling window
// (weights 1/window²), which preserves shape and keeps the layer linear
// so it can run homomorphically; the ReLU keeps a non-linearity in place.
// The rewrite requires knowing the tensor shape flowing into each pool,
// so it walks the shape chain.
func ReplaceMaxPool(n *Network) (*Network, error) {
	shape := n.InputShape
	var out []Layer
	for _, l := range n.Layers {
		if mp, ok := l.(*MaxPool); ok {
			if shape.Rank() != 3 {
				return nil, fmt.Errorf("nn: ReplaceMaxPool: %s fed by non rank-3 shape %v", mp.Name(), shape)
			}
			c := shape[0]
			p := tensor.ConvParams{
				InC: c, InH: shape[1], InW: shape[2],
				OutC: c, KH: mp.Window, KW: mp.Window, Stride: mp.Stride,
			}
			conv := &Conv{
				LayerName: mp.Name() + "/conv",
				P:         p,
				W:         tensor.Zeros(c, c, mp.Window, mp.Window),
				B:         tensor.Zeros(c),
			}
			// Depthwise averaging kernel: channel i reads only channel i.
			inv := 1 / float64(mp.Window*mp.Window)
			for ch := 0; ch < c; ch++ {
				for ky := 0; ky < mp.Window; ky++ {
					for kx := 0; kx < mp.Window; kx++ {
						conv.W.Set(inv, ch, ch, ky, kx)
					}
				}
			}
			out = append(out, conv, NewReLU(mp.Name()+"/relu"))
		} else {
			out = append(out, l)
		}
		next, err := l.OutputShape(shape)
		if err != nil {
			return nil, err
		}
		shape = next
	}
	replaced, err := NewNetwork(n.ModelName, n.InputShape, out...)
	if err != nil {
		return nil, err
	}
	replaced.InputMax = n.InputMax
	return replaced, nil
}
