package highdim

import (
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/dataset"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/metrics"
)

func TestUniformAllocation(t *testing.T) {
	a := UniformAllocation(1, 10, 5)
	if len(a.Eps) != 10 {
		t.Fatal("wrong length")
	}
	for _, e := range a.Eps {
		if e != 0.2 {
			t.Fatalf("eps = %v, want 0.2", e)
		}
	}
	if err := a.Validate(1, 5); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedAllocationPrivacyConstraint(t *testing.T) {
	// The m heaviest dimensions must collectively spend exactly ε.
	w := []float64{4, 1, 1, 2, 8}
	a, err := WeightedAllocation(1, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Top-2 weights: 8 and 4 → scale 1/12.
	if math.Abs(a.Eps[4]+a.Eps[0]-1) > 1e-12 {
		t.Fatalf("top-m spend = %v, want 1", a.Eps[4]+a.Eps[0])
	}
	if err := a.Validate(1, 2); err != nil {
		t.Fatal(err)
	}
	// Proportionality.
	if math.Abs(a.Eps[4]/a.Eps[1]-8) > 1e-9 {
		t.Fatalf("weights not proportional: %v", a.Eps)
	}
}

func TestWeightedAllocationRejectsBadInput(t *testing.T) {
	if _, err := WeightedAllocation(1, nil, 1); err == nil {
		t.Error("empty weights must fail")
	}
	if _, err := WeightedAllocation(1, []float64{1, -1}, 1); err == nil {
		t.Error("negative weight must fail")
	}
	if _, err := WeightedAllocation(1, []float64{1, 2}, 3); err == nil {
		t.Error("m > d must fail")
	}
	if _, err := WeightedAllocation(1, []float64{1, math.Inf(1)}, 1); err == nil {
		t.Error("infinite weight must fail")
	}
}

func TestAllocationValidateCatchesOverspend(t *testing.T) {
	a := Allocation{Eps: []float64{0.6, 0.6, 0.1}}
	if err := a.Validate(1, 2); err == nil {
		t.Fatal("0.6+0.6 > 1 must fail for m=2")
	}
	if err := a.Validate(1.2, 2); err != nil {
		t.Fatalf("0.6+0.6 ≤ 1.2 should pass: %v", err)
	}
	bad := Allocation{Eps: []float64{0.5, 0}}
	if err := bad.Validate(1, 1); err == nil {
		t.Fatal("zero budget must fail")
	}
}

func TestStdWeightsFloor(t *testing.T) {
	w := StdWeights([]float64{1, 0.01, 0})
	if w[0] != 1 {
		t.Fatalf("w = %v", w)
	}
	if w[1] != 0.1 || w[2] != 0.1 {
		t.Fatalf("floor missing: %v", w)
	}
	// Degenerate all-zero stds fall back to equal weights.
	z := StdWeights([]float64{0, 0})
	if z[0] != z[1] || z[0] <= 0 {
		t.Fatalf("z = %v", z)
	}
}

func TestColumnStds(t *testing.T) {
	ds := dataset.NewGaussian(5000, 30, 3)
	stds := ColumnStds(ds, 5000)
	for j, s := range stds {
		if math.Abs(s-1.0/16) > 0.01 {
			t.Errorf("dim %d std = %v, want ≈1/16", j, s)
		}
	}
}

func TestSimulateAllocatedMatchesUniformWhenWeightsEqual(t *testing.T) {
	ds := dataset.Memoize(dataset.NewUniform(20000, 8, 4))
	p, err := NewProtocol(ldp.Laplace{}, 4, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	alloc := UniformAllocation(4, 8, 8)
	agg, err := simulateAllocated(p, alloc, ds, mathx.NewRNG(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	mse := metrics.MSE(agg.Estimate(), ds.TrueMean())
	base, err := simulate(p, ds, mathx.NewRNG(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	baseMSE := metrics.MSE(base.Estimate(), ds.TrueMean())
	if mse > 5*baseMSE+1e-6 || baseMSE > 5*mse+1e-6 {
		t.Fatalf("uniform allocation diverges from baseline: %v vs %v", mse, baseMSE)
	}
}

func TestSimulateAllocatedImprovesWeightedError(t *testing.T) {
	// Importance-weighted collection: half the dimensions matter 100× more
	// than the rest. The variance-optimal εⱼ ∝ wⱼ^{1/3} allocation must
	// improve the importance-weighted MSE over the uniform split (theory
	// predicts ≈2.2× here), at the price of a worse unweighted MSE on the
	// starved dimensions.
	if testing.Short() {
		t.Skip("allocation sweep skipped in -short")
	}
	const d = 40
	ds := dataset.Memoize(dataset.NewUniform(30000, d, 7))
	truth := ds.TrueMean()
	weights := make([]float64, d)
	for j := range weights {
		if j < d/2 {
			weights[j] = 1
		} else {
			weights[j] = 0.01
		}
	}
	const eps = 2.0
	p, err := NewProtocol(ldp.Laplace{}, eps, d, d)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := OptimalMSEAllocation(eps, weights, d)
	if err != nil {
		t.Fatal(err)
	}
	var uniW, allocW float64
	const trials = 5
	for tr := 0; tr < trials; tr++ {
		u, err := simulate(p, ds, mathx.NewRNG(uint64(100+tr)), 4)
		if err != nil {
			t.Fatal(err)
		}
		a, err := simulateAllocated(p, alloc, ds, mathx.NewRNG(uint64(200+tr)), 4)
		if err != nil {
			t.Fatal(err)
		}
		uniW += metrics.WeightedMSE(u.Estimate(), truth, weights)
		allocW += metrics.WeightedMSE(a.Estimate(), truth, weights)
	}
	if allocW*1.3 >= uniW {
		t.Fatalf("weighted allocation did not improve weighted MSE enough: %v vs uniform %v", allocW/trials, uniW/trials)
	}
}

func TestSimulateAllocatedValidation(t *testing.T) {
	ds := dataset.NewUniform(100, 4, 1)
	p, err := NewProtocol(ldp.Laplace{}, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulateAllocated(p, Allocation{Eps: []float64{1}}, ds, mathx.NewRNG(1), 2); err == nil {
		t.Error("length mismatch must fail")
	}
	over := Allocation{Eps: []float64{0.9, 0.9, 0.9, 0.9}}
	if _, err := simulateAllocated(p, over, ds, mathx.NewRNG(1), 2); err == nil {
		t.Error("overspending allocation must fail")
	}
}
