package nn

import (
	"fmt"
	"math"

	"ppstream/internal/tensor"
)

// ReLU is the rectified-linear activation, an element-wise non-linear
// layer: under PP-Stream the data provider evaluates it on permuted
// plaintext values (Section III-C).
type ReLU struct {
	LayerName string
}

// NewReLU creates a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{LayerName: name} }

// Name implements Layer.
func (l *ReLU) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *ReLU) Kind() Kind { return NonLinear }

// OutputShape implements Layer.
func (l *ReLU) OutputShape(in tensor.Shape) (tensor.Shape, error) { return in.Clone(), nil }

// ApplyElement implements ElementWise.
func (l *ReLU) ApplyElement(v float64) float64 { return math.Max(0, v) }

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Dense) (*tensor.Dense, error) {
	return tensor.Map(x, l.ApplyElement), nil
}

// Backward implements Backprop: the gradient passes where x > 0.
func (l *ReLU) Backward(x, dy *tensor.Dense, _ [][]float64) (*tensor.Dense, error) {
	return tensor.Zip(x, dy, func(xi, g float64) float64 {
		if xi > 0 {
			return g
		}
		return 0
	})
}

// Sigmoid is the logistic activation σ(x) = 1/(1+e^{-x}), element-wise
// and therefore permutation-compatible.
type Sigmoid struct {
	LayerName string
}

// NewSigmoid creates a Sigmoid layer.
func NewSigmoid(name string) *Sigmoid { return &Sigmoid{LayerName: name} }

// Name implements Layer.
func (l *Sigmoid) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *Sigmoid) Kind() Kind { return NonLinear }

// OutputShape implements Layer.
func (l *Sigmoid) OutputShape(in tensor.Shape) (tensor.Shape, error) { return in.Clone(), nil }

// ApplyElement implements ElementWise.
func (l *Sigmoid) ApplyElement(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// Forward implements Layer.
func (l *Sigmoid) Forward(x *tensor.Dense) (*tensor.Dense, error) {
	return tensor.Map(x, l.ApplyElement), nil
}

// Backward implements Backprop: dσ/dx = σ(x)(1−σ(x)).
func (l *Sigmoid) Backward(x, dy *tensor.Dense, _ [][]float64) (*tensor.Dense, error) {
	return tensor.Zip(x, dy, func(xi, g float64) float64 {
		s := l.ApplyElement(xi)
		return g * s * (1 - s)
	})
}

// SoftMax normalizes a vector into a probability distribution. It is a
// non-linear layer that is NOT element-wise: the paper places it in the
// last round where the model provider skips obfuscation, so the data
// provider evaluates it on the non-permuted tensor (Section III-C).
type SoftMax struct {
	LayerName string
}

// NewSoftMax creates a SoftMax layer.
func NewSoftMax(name string) *SoftMax { return &SoftMax{LayerName: name} }

// Name implements Layer.
func (l *SoftMax) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *SoftMax) Kind() Kind { return NonLinear }

// OutputShape implements Layer.
func (l *SoftMax) OutputShape(in tensor.Shape) (tensor.Shape, error) { return in.Clone(), nil }

// Forward implements Layer using the max-shifted stable formulation.
func (l *SoftMax) Forward(x *tensor.Dense) (*tensor.Dense, error) {
	xd := x.Data()
	if len(xd) == 0 {
		return nil, fmt.Errorf("nn: %s got empty input", l.LayerName)
	}
	maxV := xd[0]
	for _, v := range xd {
		if v > maxV {
			maxV = v
		}
	}
	out := tensor.Zeros(x.Shape()...)
	od := out.Data()
	var sum float64
	for i, v := range xd {
		e := math.Exp(v - maxV)
		od[i] = e
		sum += e
	}
	for i := range od {
		od[i] /= sum
	}
	return out, nil
}

// Backward implements Backprop with the full SoftMax Jacobian:
// dx_i = p_i·(dy_i − Σ_j dy_j·p_j).
func (l *SoftMax) Backward(x, dy *tensor.Dense, _ [][]float64) (*tensor.Dense, error) {
	p, err := l.Forward(x)
	if err != nil {
		return nil, err
	}
	pd, dyd := p.Data(), dy.Data()
	if len(pd) != len(dyd) {
		return nil, fmt.Errorf("nn: %s backward size mismatch", l.LayerName)
	}
	var dot float64
	for i := range pd {
		dot += dyd[i] * pd[i]
	}
	dx := tensor.Zeros(x.Shape()...)
	dxd := dx.Data()
	for i := range pd {
		dxd[i] = pd[i] * (dyd[i] - dot)
	}
	return dx, nil
}

// MaxPool down-samples a [C,H,W] tensor with a square window. It is
// non-linear and position-dependent, so it cannot run on permuted
// tensors; the paper notes it can be replaced by a stride-2 convolution
// plus ReLU (Section III-C) — see ReplaceMaxPool.
type MaxPool struct {
	LayerName string
	Window    int
	Stride    int
}

// NewMaxPool creates a max-pooling layer.
func NewMaxPool(name string, window, stride int) *MaxPool {
	return &MaxPool{LayerName: name, Window: window, Stride: stride}
}

// Name implements Layer.
func (l *MaxPool) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *MaxPool) Kind() Kind { return NonLinear }

// OutputShape implements Layer.
func (l *MaxPool) OutputShape(in tensor.Shape) (tensor.Shape, error) {
	if in.Rank() != 3 {
		return nil, fmt.Errorf("nn: %s expects rank-3 input, got %v", l.LayerName, in)
	}
	oh := (in[1]-l.Window)/l.Stride + 1
	ow := (in[2]-l.Window)/l.Stride + 1
	if l.Window <= 0 || l.Stride <= 0 || oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: %s invalid pooling geometry for input %v", l.LayerName, in)
	}
	return tensor.Shape{in[0], oh, ow}, nil
}

// Forward implements Layer.
func (l *MaxPool) Forward(x *tensor.Dense) (*tensor.Dense, error) {
	return tensor.MaxPool2D(x, l.Window, l.Stride)
}

// Backward implements Backprop: gradients flow to the argmax position of
// each window (ties to the first maximum).
func (l *MaxPool) Backward(x, dy *tensor.Dense, _ [][]float64) (*tensor.Dense, error) {
	outShape, err := l.OutputShape(x.Shape())
	if err != nil {
		return nil, err
	}
	if !dy.Shape().Equal(outShape) {
		return nil, fmt.Errorf("nn: %s backward dy shape %v, want %v", l.LayerName, dy.Shape(), outShape)
	}
	c, h, w := x.Shape()[0], x.Shape()[1], x.Shape()[2]
	oh, ow := outShape[1], outShape[2]
	dx := tensor.Zeros(c, h, w)
	xd, dyd, dxd := x.Data(), dy.Data(), dx.Data()
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := math.Inf(-1)
				bi := -1
				for ky := 0; ky < l.Window; ky++ {
					for kx := 0; kx < l.Window; kx++ {
						idx := (ch*h+oy*l.Stride+ky)*w + ox*l.Stride + kx
						if xd[idx] > best {
							best, bi = xd[idx], idx
						}
					}
				}
				dxd[bi] += dyd[(ch*oh+oy)*ow+ox]
			}
		}
	}
	return dx, nil
}

// Flatten reshapes its input to rank 1; a structural no-op that is
// classified as linear (it moves no values and has no parameters).
type Flatten struct {
	LayerName string
}

// NewFlatten creates a Flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{LayerName: name} }

// Name implements Layer.
func (l *Flatten) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *Flatten) Kind() Kind { return Linear }

// OutputShape implements Layer.
func (l *Flatten) OutputShape(in tensor.Shape) (tensor.Shape, error) {
	return tensor.Shape{in.Size()}, nil
}

// Forward implements Layer.
func (l *Flatten) Forward(x *tensor.Dense) (*tensor.Dense, error) {
	return x.Clone().Flatten(), nil
}

// Backward implements Backprop: reshape the gradient back.
func (l *Flatten) Backward(x, dy *tensor.Dense, _ [][]float64) (*tensor.Dense, error) {
	return dy.Clone().Reshape(x.Shape()...)
}

// ScaledSigmoid is a mixed layer from the paper's Figure 2: it multiplies
// the input element-wise by learned model parameters (linear) and then
// applies the sigmoid (non-linear). It demonstrates mixed-layer
// decomposition (Section IV-B).
type ScaledSigmoid struct {
	LayerName string
	Scale     *tensor.Dense // per-element scale, model parameter
}

// NewScaledSigmoid creates a mixed sigmoid layer over n elements with
// unit scales.
func NewScaledSigmoid(name string, n int) *ScaledSigmoid {
	return &ScaledSigmoid{LayerName: name, Scale: tensor.Ones(n)}
}

// Name implements Layer.
func (l *ScaledSigmoid) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *ScaledSigmoid) Kind() Kind { return Mixed }

// OutputShape implements Layer.
func (l *ScaledSigmoid) OutputShape(in tensor.Shape) (tensor.Shape, error) {
	if in.Size() != l.Scale.Size() {
		return nil, fmt.Errorf("nn: %s expects %d elements, got %v", l.LayerName, l.Scale.Size(), in)
	}
	return in.Clone(), nil
}

// Forward implements Layer.
func (l *ScaledSigmoid) Forward(x *tensor.Dense) (*tensor.Dense, error) {
	if x.Size() != l.Scale.Size() {
		return nil, fmt.Errorf("nn: %s expects %d elements, got %d", l.LayerName, l.Scale.Size(), x.Size())
	}
	out := tensor.Zeros(x.Shape()...)
	xd, sd, od := x.Data(), l.Scale.Data(), out.Data()
	for i := range xd {
		od[i] = 1 / (1 + math.Exp(-sd[i]*xd[i]))
	}
	return out, nil
}

// Params implements Trainable.
func (l *ScaledSigmoid) Params() []*tensor.Dense { return []*tensor.Dense{l.Scale} }

// Backward implements Backprop for y = σ(s·x).
func (l *ScaledSigmoid) Backward(x, dy *tensor.Dense, grads [][]float64) (*tensor.Dense, error) {
	if x.Size() != l.Scale.Size() || dy.Size() != l.Scale.Size() {
		return nil, fmt.Errorf("nn: %s backward size mismatch", l.LayerName)
	}
	dx := tensor.Zeros(x.Shape()...)
	xd, sd, dyd, dxd, dsd := x.Data(), l.Scale.Data(), dy.Data(), dx.Data(), grads[0]
	for i := range xd {
		s := 1 / (1 + math.Exp(-sd[i]*xd[i]))
		base := dyd[i] * s * (1 - s)
		dxd[i] = base * sd[i]
		dsd[i] += base * xd[i]
	}
	return dx, nil
}

// Split implements Splitter: the linear primitive scales element-wise by
// the model parameters; the non-linear primitive is the plain sigmoid.
func (l *ScaledSigmoid) Split() (Layer, Layer) {
	return &ElemScale{LayerName: l.LayerName + "/scale", Scale: l.Scale},
		NewSigmoid(l.LayerName + "/sigmoid")
}

// ElemScale multiplies the input element-wise by fixed model parameters;
// the linear half of a decomposed ScaledSigmoid.
type ElemScale struct {
	LayerName string
	Scale     *tensor.Dense
}

// Name implements Layer.
func (l *ElemScale) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *ElemScale) Kind() Kind { return Linear }

// OutputShape implements Layer.
func (l *ElemScale) OutputShape(in tensor.Shape) (tensor.Shape, error) {
	if in.Size() != l.Scale.Size() {
		return nil, fmt.Errorf("nn: %s expects %d elements, got %v", l.LayerName, l.Scale.Size(), in)
	}
	return in.Clone(), nil
}

// Forward implements Layer.
func (l *ElemScale) Forward(x *tensor.Dense) (*tensor.Dense, error) {
	if x.Size() != l.Scale.Size() {
		return nil, fmt.Errorf("nn: %s expects %d elements, got %d", l.LayerName, l.Scale.Size(), x.Size())
	}
	out, err := tensor.Mul(x.Flatten(), l.Scale.Flatten())
	if err != nil {
		return nil, err
	}
	return out.Reshape(x.Shape()...)
}
