// Package leakage quantifies the information leakage of PP-Stream's
// obfuscation using distance correlation (Székely, Rizzo & Bakirov 2007),
// the metric of the paper's Exp#5 (Table VI): the obfuscation permutes
// positions but not values, so some statistical dependence between the
// before- and after-obfuscation tensors remains; distance correlation
// measures it, with 1 for identical tensors and 0 for full independence.
package leakage

import (
	"errors"
	"fmt"
	"math"

	"ppstream/internal/obfuscate"
	"ppstream/internal/tensor"
)

// DistanceCorrelation computes the sample distance correlation between
// two paired scalar sequences of equal length n ≥ 2.
func DistanceCorrelation(x, y []float64) (float64, error) {
	n := len(x)
	if n != len(y) {
		return 0, fmt.Errorf("leakage: length mismatch %d vs %d", n, len(y))
	}
	if n < 2 {
		return 0, errors.New("leakage: need at least two observations")
	}
	for i := range x {
		if !isFinite(x[i]) || !isFinite(y[i]) {
			return 0, fmt.Errorf("leakage: non-finite observation at index %d", i)
		}
	}
	ax := centered(n, func(i, j int) float64 { return math.Abs(x[i] - x[j]) })
	ay := centered(n, func(i, j int) float64 { return math.Abs(y[i] - y[j]) })
	return dcorFromCentered(ax, ay), nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// dcorFromCentered finishes the distance-correlation computation from
// two double-centered distance matrices, hardened against the float
// edge cases that would otherwise surface as NaN: constant or
// near-constant sequences (zero distance variance), covariance driven
// slightly negative by cancellation, and rounding pushing the ratio
// above one. The result is always a finite value in [0, 1].
func dcorFromCentered(ax, ay [][]float64) float64 {
	n := len(ax)
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cov += ax[i][j] * ay[i][j]
			vx += ax[i][j] * ax[i][j]
			vy += ay[i][j] * ay[i][j]
		}
	}
	n2 := float64(n * n)
	cov /= n2
	vx /= n2
	vy /= n2
	if vx <= 0 || vy <= 0 {
		// A constant sequence has zero distance variance; correlation is
		// conventionally zero. Treating ≤0 (not just ==0) also absorbs
		// negative rounding residue from the centering sums.
		return 0
	}
	ratio := cov / math.Sqrt(vx*vy)
	if math.IsNaN(ratio) || ratio <= 0 {
		// Sample distance covariance can round below zero for (near-)
		// independent data; the population quantity is nonnegative.
		return 0
	}
	dcor := math.Sqrt(ratio)
	if math.IsNaN(dcor) || dcor > 1 {
		return 1
	}
	return dcor
}

// centered builds the double-centered distance matrix
// A_ij = a_ij − ā_i· − ā_·j + ā_·· of n observations whose pairwise
// distance a_ij is dist(i, j).
func centered(n int, dist func(i, j int) float64) [][]float64 {
	a := make([][]float64, n)
	rowMean := make([]float64, n)
	var grand float64
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			d := dist(i, j)
			a[i][j] = d
			rowMean[i] += d
		}
		rowMean[i] /= float64(n)
		grand += rowMean[i]
	}
	grand /= float64(n)
	for i := range a {
		for j := range a[i] {
			a[i][j] = a[i][j] - rowMean[i] - rowMean[j] + grand
		}
	}
	return a
}

// MeasureObfuscation obfuscates the tensor with a fresh random
// permutation and returns the distance correlation between the original
// (lexicographically flattened) and permuted sequences — one sample of
// Exp#5's measurement.
func MeasureObfuscation(t *tensor.Dense) (float64, error) {
	perm, err := obfuscate.NewRandom(t.Size())
	if err != nil {
		return 0, err
	}
	return MeasureWithPermutation(t, perm)
}

// MeasureWithPermutation measures leakage under a specific permutation
// (deterministic variant for tests and reproducible tables).
func MeasureWithPermutation(t *tensor.Dense, perm *obfuscate.Permutation) (float64, error) {
	obf, err := obfuscate.ApplyTensor(perm, t)
	if err != nil {
		return 0, err
	}
	return DistanceCorrelation(t.Flatten().Data(), obf.Data())
}

// MeasureMean averages the leakage over trials fresh random
// permutations, as Exp#5 does across the inference runs of all models.
func MeasureMean(t *tensor.Dense, trials int) (float64, error) {
	if trials <= 0 {
		trials = 1
	}
	var sum float64
	for i := 0; i < trials; i++ {
		d, err := MeasureObfuscation(t)
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum / float64(trials), nil
}
