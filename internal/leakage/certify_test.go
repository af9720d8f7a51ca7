package leakage

import (
	"math"
	"math/rand"
	"testing"

	"ppstream/internal/nn"
	"ppstream/internal/tensor"
)

// TestDistanceCorrelationEdgeCases is the table-driven regression for
// the NaN-producing inputs the hardened implementation must absorb:
// constants, near-zero variance, cancellation-driven negative
// covariance, and non-finite observations.
func TestDistanceCorrelationEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		x, y    []float64
		want    float64
		wantErr bool
	}{
		{name: "constant x", x: []float64{5, 5, 5, 5}, y: []float64{1, 2, 3, 4}, want: 0},
		{name: "constant y", x: []float64{1, 2, 3, 4}, y: []float64{-7, -7, -7, -7}, want: 0},
		{name: "both constant", x: []float64{0, 0, 0}, y: []float64{9, 9, 9}, want: 0},
		{name: "near-zero variance", x: []float64{1, 1 + 1e-300, 1, 1 - 1e-300}, y: []float64{1, 2, 3, 4}, want: 0},
		{name: "tiny spread both", x: []float64{1e-200, 2e-200, 3e-200}, y: []float64{3e-200, 1e-200, 2e-200}},
		{name: "NaN in x", x: []float64{1, math.NaN(), 3}, y: []float64{1, 2, 3}, wantErr: true},
		{name: "Inf in y", x: []float64{1, 2, 3}, y: []float64{1, math.Inf(1), 3}, wantErr: true},
		{name: "neg Inf in x", x: []float64{math.Inf(-1), 2, 3}, y: []float64{1, 2, 3}, wantErr: true},
		{name: "huge magnitudes", x: []float64{1e150, -1e150, 5e149}, y: []float64{-1e150, 1e150, 2e149}},
		{name: "identical", x: []float64{2, 7, 1, 8}, y: []float64{2, 7, 1, 8}, want: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, err := DistanceCorrelation(c.x, c.y)
			if c.wantErr {
				if err == nil {
					t.Fatalf("dcor = %v, want error", d)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 || d > 1 {
				t.Fatalf("dcor = %v, want finite value in [0,1]", d)
			}
			if c.want != 0 || c.name == "constant x" || c.name == "constant y" || c.name == "both constant" || c.name == "near-zero variance" {
				if math.Abs(d-c.want) > 1e-9 {
					t.Fatalf("dcor = %v, want %v", d, c.want)
				}
			}
		})
	}
}

func TestDistanceCorrelationVecMatchesScalar(t *testing.T) {
	// Width-1 vectors must agree with the scalar implementation.
	x := []float64{1, 5, 2, 8, 3}
	y := []float64{2, 1, 9, 4, 6}
	xv := make([][]float64, len(x))
	yv := make([][]float64, len(y))
	for i := range x {
		xv[i] = []float64{x[i]}
		yv[i] = []float64{y[i]}
	}
	ds, err := DistanceCorrelation(x, y)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := DistanceCorrelationVec(xv, yv)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ds-dv) > 1e-12 {
		t.Fatalf("vec %v != scalar %v", dv, ds)
	}
}

func TestDistanceCorrelationVecDependence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, w := 256, 4
	x := make([][]float64, n)
	rot := make([][]float64, n) // an orthogonal-ish transform of x
	indep := make([][]float64, n)
	for i := 0; i < n; i++ {
		x[i] = make([]float64, w)
		rot[i] = make([]float64, w)
		indep[i] = make([]float64, w)
		for k := 0; k < w; k++ {
			x[i][k] = rng.NormFloat64()
			indep[i][k] = rng.NormFloat64()
		}
		for k := 0; k < w; k++ {
			rot[i][k] = x[i][(k+1)%w] - x[i][(k+2)%w]
		}
	}
	dDep, err := DistanceCorrelationVec(x, rot)
	if err != nil {
		t.Fatal(err)
	}
	dInd, err := DistanceCorrelationVec(x, indep)
	if err != nil {
		t.Fatal(err)
	}
	// The biased sample estimator does not reach 0 for independent
	// multivariate data at modest n, so assert the separation rather
	// than absolute smallness.
	if dDep < 0.5 {
		t.Errorf("dependent transform dcor = %v, expected substantial", dDep)
	}
	if dInd >= dDep-0.2 {
		t.Errorf("independent (%v) not clearly below dependent (%v)", dInd, dDep)
	}
}

func TestDistanceCorrelationVecErrors(t *testing.T) {
	good := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	if _, err := DistanceCorrelationVec(good, good[:2]); err == nil {
		t.Error("sample count mismatch accepted")
	}
	if _, err := DistanceCorrelationVec(good[:1], good[:1]); err == nil {
		t.Error("single observation accepted")
	}
	if _, err := DistanceCorrelationVec([][]float64{{1, 2}, {3}}, good[:2]); err == nil {
		t.Error("ragged observations accepted")
	}
	if _, err := DistanceCorrelationVec([][]float64{{1, 2}, {math.NaN(), 4}}, good[:2]); err == nil {
		t.Error("non-finite observation accepted")
	}
}

// certTestNet builds a 3-FC network (three linear rounds) whose weights
// come from a seeded RNG — the same shape as the Heart model the
// serving plane certifies.
func certTestNet(t *testing.T, seed int64) *nn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := nn.NewNetwork("cert-test", tensor.Shape{8},
		nn.NewFC("fc1", 8, 10, rng), nn.NewReLU("r1"),
		nn.NewFC("fc2", 10, 6, rng), nn.NewReLU("r2"),
		nn.NewFC("fc3", 6, 2, rng), nn.NewSigmoid("out"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func certSamples(n, dim int, seed int64) []*tensor.Dense {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Dense, n)
	for i := range out {
		s := tensor.Zeros(dim)
		for k := range s.Data() {
			s.Data()[k] = rng.NormFloat64()
		}
		out[i] = s
	}
	return out
}

func TestCertifyClearBoundary(t *testing.T) {
	net := certTestNet(t, 21)
	samples := certSamples(32, 8, 22)

	// tau = 1 certifies everything past round 0: every score is ≤ 1.
	cert, err := CertifyClearBoundary(net, samples, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.Scores) != 3 {
		t.Fatalf("scores for %d rounds, want 3", len(cert.Scores))
	}
	if cert.Scores[0] != 1 {
		t.Fatalf("round-0 score = %v, want 1 (input vs itself)", cert.Scores[0])
	}
	if cert.Boundary != 1 {
		t.Fatalf("tau=1 boundary = %d, want 1", cert.Boundary)
	}
	if cert.Certified(0) {
		t.Error("round 0 must never certify")
	}
	if !cert.Certified(1) || !cert.Certified(2) {
		t.Errorf("rounds 1,2 should certify at tau=1: %+v", cert)
	}

	// tau = 0 certifies nothing (real activations always correlate a bit).
	cert, err = CertifyClearBoundary(net, samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Boundary != len(cert.Scores) {
		t.Fatalf("tau=0 boundary = %d, want %d (none)", cert.Boundary, len(cert.Scores))
	}
	for r := 0; r < 3; r++ {
		if cert.Certified(r) {
			t.Errorf("round %d certified at tau=0", r)
		}
	}

	// Scores must be finite, in [0,1], and the suffix rule must hold at
	// an intermediate threshold.
	for r, s := range cert.Scores {
		if math.IsNaN(s) || s < 0 || s > 1 {
			t.Fatalf("score[%d] = %v out of [0,1]", r, s)
		}
	}
	mid := (cert.Scores[1] + cert.Scores[2]) / 2
	cert, err = CertifyClearBoundary(net, samples, mid)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < len(cert.Scores); r++ {
		inSuffix := r >= cert.Boundary
		below := cert.Scores[r] <= mid
		if inSuffix {
			if !below {
				t.Fatalf("round %d in certified suffix but score %v > tau %v", r, cert.Scores[r], mid)
			}
		}
	}
	if cert.Boundary > 1 && cert.Scores[cert.Boundary-1] <= mid && cert.Boundary-1 >= 1 {
		t.Fatalf("boundary %d not minimal: round %d also below tau", cert.Boundary, cert.Boundary-1)
	}
}

func TestCertifyClearBoundaryErrors(t *testing.T) {
	net := certTestNet(t, 31)
	if _, err := CertifyClearBoundary(net, certSamples(1, 8, 1), 0.5); err == nil {
		t.Error("single calibration sample accepted")
	}
	if _, err := CertifyClearBoundary(net, certSamples(4, 8, 1), -0.1); err == nil {
		t.Error("negative threshold accepted")
	}
	// Wrong input width must surface the forward error.
	if _, err := CertifyClearBoundary(net, certSamples(4, 5, 1), 0.5); err == nil {
		t.Error("mis-shaped calibration samples accepted")
	}
}
