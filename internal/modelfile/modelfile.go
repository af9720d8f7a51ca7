// Package modelfile is the on-disk model format: a gob encoding of an
// nn.Network, written by pptrain and read by every command that serves or
// evaluates a saved model. It lives apart from nn so that the serving
// packages, which receive a network already in memory, do not link gob.
package modelfile

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"ppstream/internal/nn"
	"ppstream/internal/tensor"
)

// serialized forms: tensors and layers flatten into plain structs so gob
// does not need to chase unexported fields or interfaces. gob names the
// two unnamed field types after the package ("[]modelfile.layerBlob";
// files written while the format lived in nn say "[]nn.layerBlob"). A
// reader matches fields by name and type, not type names, so both load.

type tensorBlob struct {
	Shape []int
	Data  []float64
}

func blobOf(t *tensor.Dense) *tensorBlob {
	if t == nil {
		return nil
	}
	return &tensorBlob{Shape: t.Shape(), Data: append([]float64(nil), t.Data()...)}
}

func (b *tensorBlob) tensor() (*tensor.Dense, error) {
	if b == nil {
		return nil, nil
	}
	return tensor.FromSlice(append([]float64(nil), b.Data...), b.Shape...)
}

type layerBlob struct {
	Type    string
	Name    string
	Ints    map[string]int
	Floats  map[string]float64
	Tensors map[string]*tensorBlob
}

type networkBlob struct {
	Name   string
	Input  []int
	Layers []layerBlob
	// InputMax is Network.InputMax; a file written before the field
	// existed decodes it as 0, undeclared.
	InputMax float64
}

// Save writes the network to w in gob format.
func Save(n *nn.Network, w io.Writer) error {
	blob := networkBlob{Name: n.ModelName, Input: n.InputShape, InputMax: n.InputMax}
	for _, l := range n.Layers {
		lb, err := encodeLayer(l)
		if err != nil {
			return err
		}
		blob.Layers = append(blob.Layers, lb)
	}
	return gob.NewEncoder(w).Encode(blob)
}

// Load reads a network previously written with Save.
func Load(r io.Reader) (*nn.Network, error) {
	var blob networkBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("modelfile: decoding network: %w", err)
	}
	layers := make([]nn.Layer, len(blob.Layers))
	for i, lb := range blob.Layers {
		l, err := decodeLayer(lb)
		if err != nil {
			return nil, err
		}
		layers[i] = l
	}
	n := &nn.Network{ModelName: blob.Name, InputShape: tensor.Shape(blob.Input).Clone(), Layers: layers, InputMax: blob.InputMax}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// SaveFile writes the network to the named file.
func SaveFile(n *nn.Network, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Save(n, f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a network from the named file.
func LoadFile(path string) (*nn.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

func encodeLayer(l nn.Layer) (layerBlob, error) {
	lb := layerBlob{Name: l.Name(), Ints: map[string]int{}, Floats: map[string]float64{}, Tensors: map[string]*tensorBlob{}}
	switch v := l.(type) {
	case *nn.FC:
		lb.Type = "fc"
		lb.Tensors["w"], lb.Tensors["b"] = blobOf(v.W), blobOf(v.B)
	case *nn.Conv:
		lb.Type = "conv"
		lb.Ints["inc"], lb.Ints["inh"], lb.Ints["inw"] = v.P.InC, v.P.InH, v.P.InW
		lb.Ints["outc"], lb.Ints["kh"], lb.Ints["kw"] = v.P.OutC, v.P.KH, v.P.KW
		lb.Ints["stride"], lb.Ints["pad"] = v.P.Stride, v.P.Pad
		lb.Tensors["w"], lb.Tensors["b"] = blobOf(v.W), blobOf(v.B)
	case *nn.BatchNorm:
		lb.Type = "batchnorm"
		lb.Ints["channels"] = v.Channels
		lb.Floats["eps"] = v.Eps
		lb.Tensors["gamma"], lb.Tensors["beta"] = blobOf(v.Gamma), blobOf(v.Beta)
		lb.Tensors["mean"], lb.Tensors["var"] = blobOf(v.Mean), blobOf(v.Var)
	case *nn.ReLU:
		lb.Type = "relu"
	case *nn.Sigmoid:
		lb.Type = "sigmoid"
	case *nn.SoftMax:
		lb.Type = "softmax"
	case *nn.MaxPool:
		lb.Type = "maxpool"
		lb.Ints["window"], lb.Ints["stride"] = v.Window, v.Stride
	case *nn.Flatten:
		lb.Type = "flatten"
	case *nn.ScaledSigmoid:
		lb.Type = "scaledsigmoid"
		lb.Tensors["scale"] = blobOf(v.Scale)
	case *nn.ElemScale:
		lb.Type = "elemscale"
		lb.Tensors["scale"] = blobOf(v.Scale)
	default:
		return lb, fmt.Errorf("modelfile: cannot serialize layer type %T", l)
	}
	return lb, nil
}

func decodeLayer(lb layerBlob) (nn.Layer, error) {
	t := func(k string) (*tensor.Dense, error) {
		b, ok := lb.Tensors[k]
		if !ok || b == nil {
			return nil, fmt.Errorf("modelfile: layer %q (%s) missing tensor %q", lb.Name, lb.Type, k)
		}
		return b.tensor()
	}
	switch lb.Type {
	case "fc":
		w, err := t("w")
		if err != nil {
			return nil, err
		}
		b, err := t("b")
		if err != nil {
			return nil, err
		}
		return &nn.FC{LayerName: lb.Name, W: w, B: b}, nil
	case "conv":
		w, err := t("w")
		if err != nil {
			return nil, err
		}
		b, err := t("b")
		if err != nil {
			return nil, err
		}
		p := tensor.ConvParams{
			InC: lb.Ints["inc"], InH: lb.Ints["inh"], InW: lb.Ints["inw"],
			OutC: lb.Ints["outc"], KH: lb.Ints["kh"], KW: lb.Ints["kw"],
			Stride: lb.Ints["stride"], Pad: lb.Ints["pad"],
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return &nn.Conv{LayerName: lb.Name, P: p, W: w, B: b}, nil
	case "batchnorm":
		gamma, err := t("gamma")
		if err != nil {
			return nil, err
		}
		beta, err := t("beta")
		if err != nil {
			return nil, err
		}
		mean, err := t("mean")
		if err != nil {
			return nil, err
		}
		variance, err := t("var")
		if err != nil {
			return nil, err
		}
		return &nn.BatchNorm{LayerName: lb.Name, Channels: lb.Ints["channels"], Eps: lb.Floats["eps"],
			Gamma: gamma, Beta: beta, Mean: mean, Var: variance}, nil
	case "relu":
		return nn.NewReLU(lb.Name), nil
	case "sigmoid":
		return nn.NewSigmoid(lb.Name), nil
	case "softmax":
		return nn.NewSoftMax(lb.Name), nil
	case "maxpool":
		return nn.NewMaxPool(lb.Name, lb.Ints["window"], lb.Ints["stride"]), nil
	case "flatten":
		return nn.NewFlatten(lb.Name), nil
	case "scaledsigmoid":
		s, err := t("scale")
		if err != nil {
			return nil, err
		}
		return &nn.ScaledSigmoid{LayerName: lb.Name, Scale: s}, nil
	case "elemscale":
		s, err := t("scale")
		if err != nil {
			return nil, err
		}
		return &nn.ElemScale{LayerName: lb.Name, Scale: s}, nil
	default:
		return nil, fmt.Errorf("modelfile: unknown serialized layer type %q", lb.Type)
	}
}
