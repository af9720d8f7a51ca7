package leakage

import (
	"errors"
	"fmt"
	"math"

	"ppstream/internal/nn"
	"ppstream/internal/tensor"
)

// This file certifies where a model's crypto-clear boundary may sit:
// the linear round from which onward the stage inputs carry so little
// statistical dependence on the raw model input that running them in
// the clear leaks nothing an adversary could invert (the C2PI
// observation: deep activations decorrelate from the input). The
// measurement is multivariate distance correlation between the raw
// input and each linear stage's input across a calibration sample set.
// It runs offline: no serving code consults it, and the clear boundary a
// session plans with is the operator's (SessionConfig.ClearBoundary).

// DistanceCorrelationVec computes the sample distance correlation
// between two paired multivariate sequences: x[i] and y[i] are the i-th
// paired observations (feature vectors, possibly of different widths),
// with pairwise Euclidean distances replacing the scalar absolute
// differences. Needs n ≥ 2 samples; every coordinate must be finite.
func DistanceCorrelationVec(x, y [][]float64) (float64, error) {
	n := len(x)
	if n != len(y) {
		return 0, fmt.Errorf("leakage: sample count mismatch %d vs %d", n, len(y))
	}
	if n < 2 {
		return 0, errors.New("leakage: need at least two observations")
	}
	for i := 0; i < n; i++ {
		if len(x[i]) != len(x[0]) || len(y[i]) != len(y[0]) {
			return 0, fmt.Errorf("leakage: ragged observation at index %d", i)
		}
		for _, v := range x[i] {
			if !isFinite(v) {
				return 0, fmt.Errorf("leakage: non-finite observation at index %d", i)
			}
		}
		for _, v := range y[i] {
			if !isFinite(v) {
				return 0, fmt.Errorf("leakage: non-finite observation at index %d", i)
			}
		}
	}
	ax := centered(len(x), euclidean(x))
	ay := centered(len(y), euclidean(y))
	return dcorFromCentered(ax, ay), nil
}

// euclidean returns the Euclidean distance between observations i and j
// of a multivariate sample.
func euclidean(x [][]float64) func(i, j int) float64 {
	return func(i, j int) float64 {
		var s float64
		for k := range x[i] {
			d := x[i][k] - x[j][k]
			s += d * d
		}
		return math.Sqrt(s)
	}
}

// Certification is the result of CertifyClearBoundary: the per-linear-
// round distance correlations against the raw input and the smallest
// round index from which every later round is below the threshold.
type Certification struct {
	// Scores[r] is dcor(raw input, input of linear round r) across the
	// calibration samples. Scores[0] is 1 by construction (the round-0
	// input IS the raw input) and recorded only for completeness.
	Scores []float64
	// Boundary is the smallest linear round index r ≥ 1 such that
	// Scores[r'] ≤ Tau for all r' ≥ r. When no suffix qualifies it
	// equals len(Scores) — i.e. no round may run in the clear.
	Boundary int
	// Tau is the threshold the certification was issued against.
	Tau float64
}

// Certified reports whether linear round r may execute in the clear
// under this certification.
func (c Certification) Certified(r int) bool {
	return r >= c.Boundary && c.Boundary < len(c.Scores)
}

// CertifyClearBoundary runs the calibration samples through the
// network's merged stages and measures, for each linear round, the
// multivariate distance correlation between the raw input and that
// round's input tensor. Round 0 is never certifiable (its input is the
// input itself, and the protocol encrypts it unconditionally); the
// returned boundary is the earliest round whose entire suffix measures
// at or below tau.
func CertifyClearBoundary(net *nn.Network, samples []*tensor.Dense, tau float64) (Certification, error) {
	if len(samples) < 2 {
		return Certification{}, errors.New("leakage: certification needs at least two calibration samples")
	}
	if tau < 0 {
		return Certification{}, fmt.Errorf("leakage: negative threshold %v", tau)
	}
	merged, err := nn.Merge(net)
	if err != nil {
		return Certification{}, err
	}
	// stageInputs[r][i] is sample i's flattened input to linear round r.
	var stageInputs [][][]float64
	raw := make([][]float64, len(samples))
	for i, s := range samples {
		cur := s
		round := 0
		raw[i] = append([]float64(nil), cur.Flatten().Data()...)
		for _, st := range merged {
			if st.Kind == nn.Linear {
				for len(stageInputs) <= round {
					stageInputs = append(stageInputs, make([][]float64, len(samples)))
				}
				stageInputs[round][i] = append([]float64(nil), cur.Flatten().Data()...)
				round++
			}
			out, err := st.Forward(cur)
			if err != nil {
				return Certification{}, fmt.Errorf("leakage: calibration forward: %w", err)
			}
			cur = out
		}
	}
	cert := Certification{Scores: make([]float64, len(stageInputs)), Tau: tau}
	for r := range stageInputs {
		if r == 0 {
			cert.Scores[0] = 1 // the round-0 input is the raw input
			continue
		}
		d, err := DistanceCorrelationVec(raw, stageInputs[r])
		if err != nil {
			return Certification{}, fmt.Errorf("leakage: round %d: %w", r, err)
		}
		cert.Scores[r] = d
	}
	// Walk backward: the boundary is the start of the longest suffix of
	// rounds ≥ 1 all measuring at or below tau.
	cert.Boundary = len(cert.Scores)
	for r := len(cert.Scores) - 1; r >= 1; r-- {
		if cert.Scores[r] > tau {
			break
		}
		cert.Boundary = r
	}
	return cert, nil
}
