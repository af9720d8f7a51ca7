package tensor

import (
	"fmt"
	"math"
)

// Dense is the float64 tensor used for plaintext model parameters and
// activations.
type Dense = Tensor[float64]

// Zeros allocates a Dense tensor of the given shape filled with zeros.
func Zeros(shape ...int) *Dense { return New[float64](shape...) }

// Ones allocates a Dense tensor of the given shape filled with ones.
func Ones(shape ...int) *Dense {
	t := New[float64](shape...)
	t.Fill(1)
	return t
}

// Mul returns the element-wise (Hadamard) product a ⊙ b.
func Mul(a, b *Dense) (*Dense, error) {
	return Zip(a, b, func(x, y float64) float64 { return x * y })
}

// MatVec computes y = W·x + b where W has shape [out, in], x has size in,
// and b (optional, may be nil) has size out. This is the fully-connected
// layer's linear operation, Σ_i w_i m_i + b in the paper's Eq. (3).
func MatVec(w *Dense, x *Dense, b *Dense) (*Dense, error) {
	if w.Shape().Rank() != 2 {
		return nil, fmt.Errorf("tensor: MatVec weight must be rank 2, got %v", w.Shape())
	}
	out, in := w.Shape()[0], w.Shape()[1]
	if x.Size() != in {
		return nil, fmt.Errorf("tensor: MatVec input size %d does not match weight shape %v", x.Size(), w.Shape())
	}
	if b != nil && b.Size() != out {
		return nil, fmt.Errorf("tensor: MatVec bias size %d does not match output %d", b.Size(), out)
	}
	y := Zeros(out)
	wd, xd, yd := w.Data(), x.Data(), y.Data()
	for o := 0; o < out; o++ {
		row := wd[o*in : (o+1)*in]
		var sum float64
		for i, v := range row {
			sum += v * xd[i]
		}
		if b != nil {
			sum += b.Data()[o]
		}
		yd[o] = sum
	}
	return y, nil
}

// ConvParams describes a 2-D convolution: input [C,H,W], filters
// [F,C,KH,KW], stride, and zero padding.
type ConvParams struct {
	InC, InH, InW int // input channels, height, width
	OutC          int // number of filters
	KH, KW        int // kernel height/width
	Stride        int
	Pad           int
}

// OutH returns the output height for the convolution.
func (p ConvParams) OutH() int { return (p.InH+2*p.Pad-p.KH)/p.Stride + 1 }

// OutW returns the output width for the convolution.
func (p ConvParams) OutW() int { return (p.InW+2*p.Pad-p.KW)/p.Stride + 1 }

// Validate checks that the convolution geometry is well-formed.
func (p ConvParams) Validate() error {
	switch {
	case p.InC <= 0 || p.InH <= 0 || p.InW <= 0:
		return fmt.Errorf("tensor: conv input dims must be positive: C=%d H=%d W=%d", p.InC, p.InH, p.InW)
	case p.OutC <= 0:
		return fmt.Errorf("tensor: conv needs at least one filter, got %d", p.OutC)
	case p.KH <= 0 || p.KW <= 0:
		return fmt.Errorf("tensor: conv kernel dims must be positive: %dx%d", p.KH, p.KW)
	case p.Stride <= 0:
		return fmt.Errorf("tensor: conv stride must be positive, got %d", p.Stride)
	case p.Pad < 0:
		return fmt.Errorf("tensor: conv padding must be non-negative, got %d", p.Pad)
	case p.OutH() <= 0 || p.OutW() <= 0:
		return fmt.Errorf("tensor: conv output is empty for input %dx%d kernel %dx%d stride %d pad %d",
			p.InH, p.InW, p.KH, p.KW, p.Stride, p.Pad)
	}
	return nil
}

// Im2Col unrolls an input tensor of shape [C,H,W] into a matrix of shape
// [OutH*OutW, C*KH*KW] whose rows are the receptive fields of each output
// position. Convolution then becomes a matrix product, and — crucially for
// the paper's tensor partitioning (Section IV-D) — each output element
// depends only on one row, i.e. one input sub-tensor.
func Im2Col(x *Dense, p ConvParams) (*Dense, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	want := Shape{p.InC, p.InH, p.InW}
	if !x.Shape().Equal(want) {
		return nil, fmt.Errorf("tensor: Im2Col input shape %v does not match params %v", x.Shape(), want)
	}
	oh, ow := p.OutH(), p.OutW()
	cols := Zeros(oh*ow, p.InC*p.KH*p.KW)
	xd, cd := x.Data(), cols.Data()
	rowLen := p.InC * p.KH * p.KW
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := cd[(oy*ow+ox)*rowLen : (oy*ow+ox+1)*rowLen]
			k := 0
			for c := 0; c < p.InC; c++ {
				for ky := 0; ky < p.KH; ky++ {
					iy := oy*p.Stride + ky - p.Pad
					for kx := 0; kx < p.KW; kx++ {
						ix := ox*p.Stride + kx - p.Pad
						if iy >= 0 && iy < p.InH && ix >= 0 && ix < p.InW {
							row[k] = xd[(c*p.InH+iy)*p.InW+ix]
						}
						k++
					}
				}
			}
		}
	}
	return cols, nil
}

// Conv2D is the reference 2-D convolution. x has shape [C,H,W], w has
// shape [F,C,KH,KW], bias (optional) has size F; the result has shape
// [F,OutH,OutW].
func Conv2D(x, w, bias *Dense, p ConvParams) (*Dense, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	wantW := Shape{p.OutC, p.InC, p.KH, p.KW}
	if !w.Shape().Equal(wantW) {
		return nil, fmt.Errorf("tensor: Conv2D weight shape %v does not match params %v", w.Shape(), wantW)
	}
	if bias != nil && bias.Size() != p.OutC {
		return nil, fmt.Errorf("tensor: Conv2D bias size %d does not match filters %d", bias.Size(), p.OutC)
	}
	cols, err := Im2Col(x, p)
	if err != nil {
		return nil, err
	}
	oh, ow := p.OutH(), p.OutW()
	out := Zeros(p.OutC, oh, ow)
	rowLen := p.InC * p.KH * p.KW
	cd, wd, od := cols.Data(), w.Data(), out.Data()
	for f := 0; f < p.OutC; f++ {
		filt := wd[f*rowLen : (f+1)*rowLen]
		var b float64
		if bias != nil {
			b = bias.Data()[f]
		}
		for pos := 0; pos < oh*ow; pos++ {
			row := cd[pos*rowLen : (pos+1)*rowLen]
			sum := b
			for i, v := range filt {
				sum += v * row[i]
			}
			od[f*oh*ow+pos] = sum
		}
	}
	return out, nil
}

// MaxPool2D applies max pooling with a square window and equal stride to a
// [C,H,W] tensor. It is the non-linear down-sampling function from
// Section III-C.
func MaxPool2D(x *Dense, window, stride int) (*Dense, error) {
	if x.Shape().Rank() != 3 {
		return nil, fmt.Errorf("tensor: MaxPool2D input must be rank 3, got %v", x.Shape())
	}
	if window <= 0 || stride <= 0 {
		return nil, fmt.Errorf("tensor: MaxPool2D window/stride must be positive (window=%d stride=%d)", window, stride)
	}
	c, h, w := x.Shape()[0], x.Shape()[1], x.Shape()[2]
	oh := (h-window)/stride + 1
	ow := (w-window)/stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("tensor: MaxPool2D output empty for input %dx%d window %d stride %d", h, w, window, stride)
	}
	out := Zeros(c, oh, ow)
	xd, od := x.Data(), out.Data()
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := math.Inf(-1)
				for ky := 0; ky < window; ky++ {
					for kx := 0; kx < window; kx++ {
						v := xd[(ch*h+oy*stride+ky)*w+ox*stride+kx]
						if v > best {
							best = v
						}
					}
				}
				od[(ch*oh+oy)*ow+ox] = best
			}
		}
	}
	return out, nil
}

// ArgMax returns the flat index of the maximum element. Ties resolve to
// the lowest index. It is used to turn SoftMax outputs into class labels.
func ArgMax(t *Dense) int {
	best, bi := math.Inf(-1), 0
	for i, v := range t.Data() {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// AllClose reports whether two same-shaped tensors agree element-wise
// within absolute tolerance tol.
func AllClose(a, b *Dense, tol float64) bool {
	if !a.Shape().Equal(b.Shape()) {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Abs(ad[i]-bd[i]) > tol {
			return false
		}
	}
	return true
}
