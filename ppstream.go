// Package ppstream is the public API of the PP-Stream reproduction: a
// distributed stream processing system for high-performance
// privacy-preserving neural network inference (Liu et al., ICDE 2024).
//
// The model provider evaluates all linear layers homomorphically over
// Paillier ciphertexts; the data provider evaluates non-linear layers on
// plaintext values whose positions the model provider permuted
// (obfuscation). The alternating stages run as a multi-threaded,
// pipelined stream over inference requests, with load-balanced resource
// allocation (the optimum of the paper's ILP) and tensor partitioning.
//
// Quick start:
//
//	key, _ := ppstream.GenerateKey(512)
//	factor, _ := ppstream.SelectScalingFactor(net, trainX, trainY)
//	eng, _ := ppstream.NewEngine(net, key, ppstream.Options{
//		Factor:      factor.Factor,
//		Topology:    ppstream.Topology{ModelServers: 2, DataServers: 1, CoresPerServer: 4},
//		LoadBalance: true,
//	})
//	defer eng.Close()
//	out, latency, _ := eng.InferOne(1, input)
//
// See examples/ for runnable scenarios and cmd/ppbench for the full
// reproduction of the paper's evaluation.
package ppstream

import (
	"crypto/rand"

	"ppstream/internal/core"
	"ppstream/internal/dataset"
	"ppstream/internal/leakage"
	"ppstream/internal/modelfile"
	"ppstream/internal/models"
	"ppstream/internal/nn"
	"ppstream/internal/paillier"
	"ppstream/internal/protocol"
	"ppstream/internal/scaling"
	"ppstream/internal/tensor"
)

// Re-exported core types. The internal packages hold the implementation;
// this facade is the supported surface.
type (
	// Engine is a ready-to-run PP-Stream deployment for one model.
	Engine = core.Engine
	// Options configures engine construction.
	Options = core.Options
	// Topology describes the server deployment (model vs data provider
	// servers and cores per server).
	Topology = core.Topology
	// StreamStats summarizes a streaming inference run.
	StreamStats = core.StreamStats

	// Network is a neural network model.
	Network = nn.Network
	// Layer is one network layer.
	Layer = nn.Layer
	// TrainConfig controls the built-in SGD trainer.
	TrainConfig = nn.TrainConfig

	// Tensor is a dense float64 tensor.
	Tensor = tensor.Dense
	// Shape is a tensor shape.
	Shape = tensor.Shape

	// PrivateKey is the data provider's Paillier key pair.
	PrivateKey = paillier.PrivateKey
	// PublicKey is the model provider's encryption key.
	PublicKey = paillier.PublicKey

	// ScalingResult reports the outcome of scaling-factor selection.
	ScalingResult = scaling.Result

	// ModelSpec identifies one of the paper's Table III dataset/model
	// pairs.
	ModelSpec = models.Spec
	// Dataset is a labelled train/test split.
	Dataset = dataset.Dataset

	// Protocol is the two-party hybrid privacy-preserving workflow.
	Protocol = protocol.Protocol
)

// RecommendedKeyBits is the paper's production key size (2048). Tests
// and interactive experiments use smaller keys for speed.
const RecommendedKeyBits = paillier.RecommendedKeyBits

// GenerateKey creates the data provider's Paillier key pair.
func GenerateKey(bits int) (*PrivateKey, error) {
	return paillier.GenerateKey(rand.Reader, bits)
}

// NewEngine builds a PP-Stream engine: protocol construction, count-based
// stage pricing, load-balanced resource allocation, and stage planning.
func NewEngine(net *Network, key *PrivateKey, opts Options) (*Engine, error) {
	return core.NewEngine(net, key, opts)
}

// SelectScalingFactor runs the paper's parameter-scaling selection
// (Section IV-A) on a training subset.
func SelectScalingFactor(net *Network, xs []*Tensor, ys []int) (*ScalingResult, error) {
	return scaling.SelectFactor(net, xs, ys, 0)
}

// Train fits a network with the built-in SGD trainer.
func Train(net *Network, xs []*Tensor, ys []int, cfg TrainConfig) error {
	return nn.Train(net, xs, ys, cfg)
}

// DefaultTrainConfig returns trainer defaults suited to the synthetic
// datasets.
func DefaultTrainConfig() TrainConfig { return nn.DefaultTrainConfig() }

// SaveModel / LoadModel persist networks in gob format.
func SaveModel(net *Network, path string) error { return modelfile.SaveFile(net, path) }

// LoadModel reads a network written by SaveModel.
func LoadModel(path string) (*Network, error) { return modelfile.LoadFile(path) }

// Models returns the paper's nine Table III model specs.
func Models() []ModelSpec { return models.All() }

// ModelByName returns one Table III spec.
func ModelByName(name string) (ModelSpec, error) { return models.ByName(name) }

// PrepareModel builds, trains, and calibrates a Table III model on its
// synthetic dataset.
func PrepareModel(spec ModelSpec) (*Network, *Dataset, error) { return models.Prepare(spec) }

// MeasureLeakage returns the mean distance correlation between a tensor
// and its obfuscated form over the given number of fresh permutations
// (the paper's Exp#5 metric).
func MeasureLeakage(t *Tensor, trials int) (float64, error) {
	return leakage.MeasureMean(t, trials)
}

// NewTensor allocates a zero tensor.
func NewTensor(shape ...int) *Tensor { return tensor.Zeros(shape...) }

// TensorFromSlice wraps a flat row-major slice.
func TensorFromSlice(data []float64, shape ...int) (*Tensor, error) {
	return tensor.FromSlice(data, shape...)
}

// ArgMax returns the index of a tensor's maximum element (class
// prediction).
func ArgMax(t *Tensor) int { return tensor.ArgMax(t) }
