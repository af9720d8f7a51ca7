// Package baselines implements the comparison systems of the paper's
// evaluation:
//
//   - PlainBase and CipherBase, the centralized variants of Exp#2
//     (Fig. 8): plaintext inference on one server, and single-threaded
//     homomorphic inference on one server.
//   - An EzPC-style two-party engine for Exp#6 (Table VII): additive
//     secret sharing for linear layers and garbled circuits (with IKNP
//     OT extension) for ReLU, paying a protocol transition at every
//     linear/non-linear boundary — the overhead the paper identifies as
//     EzPC's bottleneck.
//   - The reported latencies of SecureML, CryptoNets, and CryptoDL from
//     their publications, which the paper itself compares against
//     (starred rows of Table VII).
//
// Consumers: `ppbench fig8` runs PlainBase and CipherBase, `ppbench
// table7` runs the EzPC-style engine and prints ReportedLatencies
// (internal/experiments/latency.go, table7.go). Nothing on the serving
// path imports this package.
package baselines

import (
	"fmt"
	"time"

	"ppstream/internal/nn"
	"ppstream/internal/paillier"
	"ppstream/internal/protocol"
	"ppstream/internal/tensor"
)

// Reported holds latencies (seconds) published by the corresponding
// papers for the paper's Table VII starred entries.
type Reported struct {
	System  string
	Model   string
	Seconds float64
	Source  string
}

// ReportedLatencies returns the starred Table VII rows.
func ReportedLatencies() []Reported {
	return []Reported{
		{System: "SecureML", Model: "MNIST-1", Seconds: 4.88, Source: "Mohassel & Zhang, S&P 2017 (2× EC2 c4.8xlarge)"},
		{System: "CryptoNets", Model: "MNIST-2", Seconds: 297.5, Source: "Gilad-Bachrach et al., ICML 2016 (Xeon E5-1620)"},
		{System: "CryptoDL", Model: "MNIST-2", Seconds: 320, Source: "Hesamifard et al., PETS 2018 (12-core VM)"},
	}
}

// PlainBase runs centralized plaintext inference (Fig. 8's PlainBase).
func PlainBase(net *nn.Network, x *tensor.Dense) (*tensor.Dense, time.Duration, error) {
	start := time.Now()
	out, err := net.Forward(x)
	return out, time.Since(start), err
}

// CipherBase is Fig. 8's centralized ciphertext baseline: the full
// hybrid protocol executed sequentially with single-threaded stages on
// "one server" (no pipelining, no multi-threading, no partitioning).
type CipherBase struct {
	proto *protocol.Protocol
}

// NewCipherBase builds the baseline from a network and scaling factor.
func NewCipherBase(net *nn.Network, key *paillier.PrivateKey, factor int64) (*CipherBase, error) {
	proto, err := protocol.Build(net, key, protocol.Config{Factor: factor, Workers: 1})
	if err != nil {
		return nil, err
	}
	return &CipherBase{proto: proto}, nil
}

// Infer runs one request and reports its latency.
func (c *CipherBase) Infer(req uint64, x *tensor.Dense) (*tensor.Dense, time.Duration, error) {
	start := time.Now()
	out, err := c.proto.Infer(req, x)
	return out, time.Since(start), err
}

// Protocol exposes the underlying protocol (tests).
func (c *CipherBase) Protocol() *protocol.Protocol { return c.proto }

// checkSupported verifies a network uses only the layers the 2PC
// baselines implement.
func checkSupported(net *nn.Network) error {
	for i, l := range net.Layers {
		switch l.(type) {
		case *nn.FC, *nn.Conv, *nn.BatchNorm, *nn.Flatten, *nn.ReLU:
		case *nn.SoftMax:
			if i != len(net.Layers)-1 {
				return fmt.Errorf("baselines: SoftMax must be the final layer (layer %d)", i)
			}
		default:
			return fmt.Errorf("baselines: unsupported layer %d (%s, %T)", i, l.Name(), l)
		}
	}
	return nil
}
