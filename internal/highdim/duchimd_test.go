package highdim

import (
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/dataset"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/metrics"
)

func TestDuchiMDValidation(t *testing.T) {
	if _, err := NewDuchiMD(0, 1); err == nil {
		t.Error("d=0 must fail")
	}
	if _, err := NewDuchiMD(4, 0); err == nil {
		t.Error("ε=0 must fail")
	}
	if _, err := NewDuchiMD(4, math.Inf(1)); err == nil {
		t.Error("ε=Inf must fail")
	}
}

func TestDuchiMDCdKnownValues(t *testing.T) {
	// d=1 (odd): C₁ = 2⁰/binom(0,0) = 1 → B = (e^ε+1)/(e^ε−1), exactly the
	// one-dimensional Duchi mechanism's bound.
	m, _ := NewDuchiMD(1, 1)
	if got, want := m.B(), (ldp.Duchi{}).SupportBound(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("d=1 B = %v, want %v", got, want)
	}
	// d=2 (even): C₂ = (2 + binom(2,1)/2)/binom(1,1) = 3.
	m2, _ := NewDuchiMD(2, 1)
	if got := m2.cd(); math.Abs(got-3) > 1e-12 {
		t.Errorf("C₂ = %v, want 3", got)
	}
	// d=3 (odd): C₃ = 4/binom(2,1) = 2.
	m3, _ := NewDuchiMD(3, 1)
	if got := m3.cd(); math.Abs(got-2) > 1e-12 {
		t.Errorf("C₃ = %v, want 2", got)
	}
	// Large d must stay finite (log-space path) and scale like √d.
	mBig, _ := NewDuchiMD(1001, 1)
	cd := mBig.cd()
	if math.IsInf(cd, 0) || math.IsNaN(cd) {
		t.Fatalf("C_1001 = %v", cd)
	}
	// C_d ≈ √(πd/2) for large d.
	if want := math.Sqrt(math.Pi * 1001 / 2); math.Abs(cd-want)/want > 0.01 {
		t.Errorf("C_1001 = %v, want ≈ %v", cd, want)
	}
	mBigEven, _ := NewDuchiMD(1000, 1)
	if v := mBigEven.cd(); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("C_1000 = %v", v)
	}
}

func TestDuchiMDUnbiased(t *testing.T) {
	if testing.Short() {
		t.Skip("duchi-md Monte Carlo skipped in -short")
	}
	m, _ := NewDuchiMD(5, 1.5)
	tuple := []float64{0.8, -0.5, 0, 0.3, -1}
	rng := mathx.NewRNG(3)
	const n = 150_000
	sums := make([]mathx.KahanSum, 5)
	for i := 0; i < n; i++ {
		rel := m.PerturbTuple(rng, tuple)
		for j, x := range rel {
			sums[j].Add(x)
		}
	}
	b := m.B()
	for j, want := range tuple {
		got := sums[j].Value() / n
		// Per-dim std of the mean: ≈ B/√n.
		if math.Abs(got-want) > 6*b/math.Sqrt(n) {
			t.Errorf("dim %d: mean %v, want %v (B=%v)", j, got, want, b)
		}
	}
}

func TestDuchiMDOutputsAreCorners(t *testing.T) {
	m, _ := NewDuchiMD(4, 1)
	b := m.B()
	rng := mathx.NewRNG(5)
	tuple := []float64{0.2, -0.2, 0.9, 0}
	for i := 0; i < 200; i++ {
		rel := m.PerturbTuple(rng, tuple)
		for j, x := range rel {
			if math.Abs(x) != b {
				t.Fatalf("dim %d: output %v not ±B=%v", j, x, b)
			}
		}
	}
}

func TestDuchiMDPanicsOnBadInput(t *testing.T) {
	m, _ := NewDuchiMD(2, 1)
	rng := mathx.NewRNG(1)
	for _, bad := range [][]float64{{0.5}, {2, 0}, {math.NaN(), 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("tuple %v should panic", bad)
				}
			}()
			m.PerturbTuple(rng, bad)
		}()
	}
}

func TestSimulateDuchiMDRecoversMean(t *testing.T) {
	if testing.Short() {
		t.Skip("duchi-md round skipped in -short")
	}
	ds := dataset.Memoize(dataset.NewGaussian(60_000, 10, 23))
	m, _ := NewDuchiMD(10, 4)
	est, err := simulateDuchiMD(m, ds, mathx.NewRNG(7), 4)
	if err != nil {
		t.Fatal(err)
	}
	mse := metrics.MSE(est, ds.TrueMean())
	// Var per dim ≈ B²; B = C₁₀(e⁴+1)/(e⁴−1) ≈ 4.1·1.04 → MSE ≈ B²/n ≈ 3e-4.
	if mse > 3e-3 {
		t.Fatalf("duchi-md MSE = %v", mse)
	}
	// Dimension mismatch must error.
	if _, err := simulateDuchiMD(m, dataset.NewUniform(10, 3, 1), mathx.NewRNG(1), 2); err == nil {
		t.Error("dimension mismatch must fail")
	}
}

func TestDuchiMDVsSamplingProtocol(t *testing.T) {
	// At small ε and moderate d, the dedicated multidimensional mechanism
	// and the sampling protocol land in the same accuracy ballpark; this
	// pins the comparison so regressions in either path surface.
	if testing.Short() {
		t.Skip("strategy comparison skipped in -short")
	}
	ds := dataset.Memoize(dataset.NewGaussian(40_000, 20, 29))
	truth := ds.TrueMean()
	const eps = 1.0

	m, _ := NewDuchiMD(20, eps)
	mdEst, err := simulateDuchiMD(m, ds, mathx.NewRNG(31), 4)
	if err != nil {
		t.Fatal(err)
	}
	mdMSE := metrics.MSE(mdEst, truth)

	p, err := NewProtocol(ldp.Duchi{}, eps, 20, 1) // sample 1 dim at full ε
	if err != nil {
		t.Fatal(err)
	}
	agg, err := simulate(p, ds, mathx.NewRNG(33), 4)
	if err != nil {
		t.Fatal(err)
	}
	sampMSE := metrics.MSE(agg.Estimate(), truth)

	if mdMSE > 20*sampMSE || sampMSE > 20*mdMSE {
		t.Fatalf("strategies diverged wildly: md %v vs sampling %v", mdMSE, sampMSE)
	}
}
