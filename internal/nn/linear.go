package nn

import (
	"fmt"
	"math"
	"math/rand"

	"ppstream/internal/tensor"
)

// FC is a fully-connected (dense) layer: y = W·x + b. It is a linear
// layer: under PP-Stream it executes homomorphically on the model
// provider.
type FC struct {
	LayerName string
	W         *tensor.Dense // [out, in]
	B         *tensor.Dense // [out]
}

// NewFC creates a fully-connected layer with Xavier/Glorot-initialized
// weights drawn from rng.
func NewFC(name string, in, out int, rng *rand.Rand) *FC {
	w := tensor.Zeros(out, in)
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range w.Data() {
		w.Data()[i] = (rng.Float64()*2 - 1) * limit
	}
	return &FC{
		LayerName: name,
		W:         w,
		B:         tensor.Zeros(out),
	}
}

// Name implements Layer.
func (l *FC) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *FC) Kind() Kind { return Linear }

// In returns the layer's input width.
func (l *FC) In() int { return l.W.Shape()[1] }

// Out returns the layer's output width.
func (l *FC) Out() int { return l.W.Shape()[0] }

// OutputShape implements Layer.
func (l *FC) OutputShape(in tensor.Shape) (tensor.Shape, error) {
	if in.Size() != l.In() {
		return nil, fmt.Errorf("nn: %s expects %d inputs, got shape %v", l.LayerName, l.In(), in)
	}
	return tensor.Shape{l.Out()}, nil
}

// Forward implements Layer.
func (l *FC) Forward(x *tensor.Dense) (*tensor.Dense, error) {
	return tensor.MatVec(l.W, x.Flatten(), l.B)
}

// Params implements Trainable.
func (l *FC) Params() []*tensor.Dense { return []*tensor.Dense{l.W, l.B} }

// Backward implements Backprop: dx = Wᵀ·dy; dW += dy·xᵀ; dB += dy.
func (l *FC) Backward(x, dy *tensor.Dense, grads [][]float64) (*tensor.Dense, error) {
	xf := x.Flatten()
	in, out := l.In(), l.Out()
	if xf.Size() != in || dy.Size() != out {
		return nil, fmt.Errorf("nn: %s backward shape mismatch (x %d, dy %d)", l.LayerName, xf.Size(), dy.Size())
	}
	dx := tensor.Zeros(in)
	wd, xd, dyd, dxd, dwd, dbd := l.W.Data(), xf.Data(), dy.Data(), dx.Data(), grads[0], grads[1]
	for o := 0; o < out; o++ {
		g := dyd[o]
		dbd[o] += g
		row := wd[o*in : (o+1)*in]
		drow := dwd[o*in : (o+1)*in]
		for i := 0; i < in; i++ {
			dxd[i] += row[i] * g
			drow[i] += xd[i] * g
		}
	}
	return dx, nil
}

// Conv is a 2-D convolution layer, a linear layer in the paper's
// taxonomy.
type Conv struct {
	LayerName string
	P         tensor.ConvParams
	W         *tensor.Dense // [F, C, KH, KW]
	B         *tensor.Dense // [F]
}

// NewConv creates a convolution layer with He-initialized weights.
func NewConv(name string, p tensor.ConvParams, rng *rand.Rand) (*Conv, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	w := tensor.Zeros(p.OutC, p.InC, p.KH, p.KW)
	std := math.Sqrt(2.0 / float64(p.InC*p.KH*p.KW))
	for i := range w.Data() {
		w.Data()[i] = rng.NormFloat64() * std
	}
	return &Conv{
		LayerName: name,
		P:         p,
		W:         w,
		B:         tensor.Zeros(p.OutC),
	}, nil
}

// Name implements Layer.
func (l *Conv) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *Conv) Kind() Kind { return Linear }

// OutputShape implements Layer.
func (l *Conv) OutputShape(in tensor.Shape) (tensor.Shape, error) {
	want := tensor.Shape{l.P.InC, l.P.InH, l.P.InW}
	if !in.Equal(want) {
		return nil, fmt.Errorf("nn: %s expects input %v, got %v", l.LayerName, want, in)
	}
	return tensor.Shape{l.P.OutC, l.P.OutH(), l.P.OutW()}, nil
}

// Forward implements Layer.
func (l *Conv) Forward(x *tensor.Dense) (*tensor.Dense, error) {
	return tensor.Conv2D(x, l.W, l.B, l.P)
}

// Params implements Trainable.
func (l *Conv) Params() []*tensor.Dense { return []*tensor.Dense{l.W, l.B} }

// Backward implements Backprop using the im2col decomposition.
func (l *Conv) Backward(x, dy *tensor.Dense, grads [][]float64) (*tensor.Dense, error) {
	p := l.P
	oh, ow := p.OutH(), p.OutW()
	wantDy := tensor.Shape{p.OutC, oh, ow}
	if !dy.Shape().Equal(wantDy) {
		return nil, fmt.Errorf("nn: %s backward dy shape %v, want %v", l.LayerName, dy.Shape(), wantDy)
	}
	cols, err := tensor.Im2Col(x, p)
	if err != nil {
		return nil, err
	}
	rowLen := p.InC * p.KH * p.KW
	cd, dyd, wd := cols.Data(), dy.Data(), l.W.Data()
	dwd, dbd := grads[0], grads[1]
	// dcols[pos][k] = Σ_f dy[f][pos]·W[f][k]; dW[f][k] += Σ_pos dy[f][pos]·cols[pos][k]
	dcols := make([]float64, oh*ow*rowLen)
	for f := 0; f < p.OutC; f++ {
		filt := wd[f*rowLen : (f+1)*rowLen]
		dfilt := dwd[f*rowLen : (f+1)*rowLen]
		for pos := 0; pos < oh*ow; pos++ {
			g := dyd[f*oh*ow+pos]
			if g == 0 {
				continue
			}
			dbdelta := g
			row := cd[pos*rowLen : (pos+1)*rowLen]
			drow := dcols[pos*rowLen : (pos+1)*rowLen]
			for k := 0; k < rowLen; k++ {
				dfilt[k] += row[k] * g
				drow[k] += filt[k] * g
			}
			dbd[f] += dbdelta
		}
	}
	// col2im: scatter-add dcols back to input positions.
	dx := tensor.Zeros(p.InC, p.InH, p.InW)
	dxd := dx.Data()
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			drow := dcols[(oy*ow+ox)*rowLen : (oy*ow+ox+1)*rowLen]
			k := 0
			for c := 0; c < p.InC; c++ {
				for ky := 0; ky < p.KH; ky++ {
					iy := oy*p.Stride + ky - p.Pad
					for kx := 0; kx < p.KW; kx++ {
						ix := ox*p.Stride + kx - p.Pad
						if iy >= 0 && iy < p.InH && ix >= 0 && ix < p.InW {
							dxd[(c*p.InH+iy)*p.InW+ix] += drow[k]
						}
						k++
					}
				}
			}
		}
	}
	return dx, nil
}

// BatchNorm normalizes per channel (rank-3 inputs) or per feature (rank-1
// inputs) with frozen statistics and learnable scale/shift:
// y = γ·(x − μ)/√(σ² + ε) + β. It is a linear layer: with fixed μ, σ² the
// transform is an affine function of x, so PP-Stream evaluates it
// homomorphically. Statistics are calibrated from data (Calibrate) and
// then frozen, matching inference-time batch-norm semantics.
type BatchNorm struct {
	LayerName string
	Channels  int
	Eps       float64
	Gamma     *tensor.Dense // [C]
	Beta      *tensor.Dense // [C]
	Mean      *tensor.Dense // [C], frozen running mean
	Var       *tensor.Dense // [C], frozen running variance
}

// NewBatchNorm creates an identity-initialized batch-norm layer over the
// given number of channels/features.
func NewBatchNorm(name string, channels int) *BatchNorm {
	return &BatchNorm{
		LayerName: name,
		Channels:  channels,
		Eps:       1e-5,
		Gamma:     tensor.Ones(channels),
		Beta:      tensor.Zeros(channels),
		Mean:      tensor.Zeros(channels),
		Var:       tensor.Ones(channels),
	}
}

// Name implements Layer.
func (l *BatchNorm) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *BatchNorm) Kind() Kind { return Linear }

// OutputShape implements Layer.
func (l *BatchNorm) OutputShape(in tensor.Shape) (tensor.Shape, error) {
	if err := l.checkShape(in); err != nil {
		return nil, err
	}
	return in.Clone(), nil
}

func (l *BatchNorm) checkShape(in tensor.Shape) error {
	switch in.Rank() {
	case 1:
		if in[0] != l.Channels {
			return fmt.Errorf("nn: %s expects %d features, got %v", l.LayerName, l.Channels, in)
		}
	case 3:
		if in[0] != l.Channels {
			return fmt.Errorf("nn: %s expects %d channels, got %v", l.LayerName, l.Channels, in)
		}
	default:
		return fmt.Errorf("nn: %s expects rank-1 or rank-3 input, got %v", l.LayerName, in)
	}
	return nil
}

// channelOf maps a flat offset to its channel index.
func (l *BatchNorm) channelOf(shape tensor.Shape, flat int) int {
	if shape.Rank() == 1 {
		return flat
	}
	perChannel := shape[1] * shape[2]
	return flat / perChannel
}

// Forward implements Layer.
func (l *BatchNorm) Forward(x *tensor.Dense) (*tensor.Dense, error) {
	if err := l.checkShape(x.Shape()); err != nil {
		return nil, err
	}
	out := tensor.Zeros(x.Shape()...)
	xd, od := x.Data(), out.Data()
	g, b, mu, v := l.Gamma.Data(), l.Beta.Data(), l.Mean.Data(), l.Var.Data()
	for i := range xd {
		c := l.channelOf(x.Shape(), i)
		od[i] = g[c]*(xd[i]-mu[c])/math.Sqrt(v[c]+l.Eps) + b[c]
	}
	return out, nil
}

// Params implements Trainable (γ and β learn; μ and σ² are frozen).
func (l *BatchNorm) Params() []*tensor.Dense { return []*tensor.Dense{l.Gamma, l.Beta} }

// Backward implements Backprop with frozen statistics:
// dx = dy·γ/√(σ²+ε); dγ += dy·x̂; dβ += dy.
func (l *BatchNorm) Backward(x, dy *tensor.Dense, grads [][]float64) (*tensor.Dense, error) {
	if !x.Shape().Equal(dy.Shape()) {
		return nil, fmt.Errorf("nn: %s backward shape mismatch %v vs %v", l.LayerName, x.Shape(), dy.Shape())
	}
	dx := tensor.Zeros(x.Shape()...)
	xd, dyd, dxd := x.Data(), dy.Data(), dx.Data()
	g, mu, v := l.Gamma.Data(), l.Mean.Data(), l.Var.Data()
	dg, db := grads[0], grads[1]
	for i := range xd {
		c := l.channelOf(x.Shape(), i)
		inv := 1 / math.Sqrt(v[c]+l.Eps)
		xhat := (xd[i] - mu[c]) * inv
		dg[c] += dyd[i] * xhat
		db[c] += dyd[i]
		dxd[i] = dyd[i] * g[c] * inv
	}
	return dx, nil
}

// Calibrate sets the frozen per-channel statistics from a sample of
// activations that would feed this layer.
func (l *BatchNorm) Calibrate(samples []*tensor.Dense) error {
	if len(samples) == 0 {
		return fmt.Errorf("nn: %s calibrate needs at least one sample", l.LayerName)
	}
	count := make([]float64, l.Channels)
	mean := make([]float64, l.Channels)
	m2 := make([]float64, l.Channels)
	for _, s := range samples {
		if err := l.checkShape(s.Shape()); err != nil {
			return err
		}
		for i, val := range s.Data() {
			c := l.channelOf(s.Shape(), i)
			count[c]++
			delta := val - mean[c]
			mean[c] += delta / count[c]
			m2[c] += delta * (val - mean[c])
		}
	}
	for c := 0; c < l.Channels; c++ {
		l.Mean.Data()[c] = mean[c]
		if count[c] > 1 {
			l.Var.Data()[c] = m2[c] / count[c]
		} else {
			l.Var.Data()[c] = 1
		}
	}
	return nil
}
