package highdim

import (
	"fmt"
	"math"
	"slices"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Allocation assigns a per-dimension privacy budget εⱼ — the protocol
// extension explored by the correlation-/importance-aware allocation line
// of work the paper surveys in §II-B ([33]–[35]). Under dimension sampling,
// a user's total spend is the sum of εⱼ over her sampled m-subset, so
// ε-LDP for *every* possible sample requires the m largest εⱼ to sum to at
// most ε. (The uniform allocation εⱼ = ε/m is the paper's baseline.)
type Allocation struct {
	Eps []float64
}

// UniformAllocation returns the paper's ε/m-per-dimension split.
func UniformAllocation(eps float64, d, m int) Allocation {
	a := Allocation{Eps: make([]float64, d)}
	for j := range a.Eps {
		a.Eps[j] = eps / float64(m)
	}
	return a
}

// WeightedAllocation distributes the budget proportionally to weights
// wⱼ > 0, scaled so that the largest m-subset spends exactly ε. Dimensions
// deemed more important (higher weight) receive more budget and therefore
// less noise.
func WeightedAllocation(eps float64, weights []float64, m int) (Allocation, error) {
	if len(weights) == 0 {
		return Allocation{}, fmt.Errorf("highdim: no weights")
	}
	if m < 1 || m > len(weights) {
		return Allocation{}, fmt.Errorf("highdim: m=%d out of range [1,%d]", m, len(weights))
	}
	for j, w := range weights {
		if !(w > 0) || math.IsInf(w, 0) || math.IsNaN(w) {
			return Allocation{}, fmt.Errorf("highdim: weight[%d]=%v must be finite and positive", j, w)
		}
	}
	// Binding constraint: sum of the m largest weights — sorted ascending
	// (slices.Sort avoids the interface boxing of sort.Sort/sort.Reverse)
	// and summed from the tail down, preserving the descending add order.
	sorted := make([]float64, len(weights))
	copy(sorted, weights)
	slices.Sort(sorted)
	var top mathx.KahanSum
	for i := len(sorted) - 1; i >= len(sorted)-m; i-- {
		top.Add(sorted[i])
	}
	c := eps / top.Value()
	a := Allocation{Eps: make([]float64, len(weights))}
	for j, w := range weights {
		a.Eps[j] = c * w
	}
	return a, nil
}

// OptimalMSEAllocation distributes the budget to minimize the weighted
// noise MSE Σⱼ wⱼ·Var(εⱼ) for Var ∝ 1/ε², whose Lagrangian optimum is
// εⱼ ∝ wⱼ^{1/3}. (Naively setting εⱼ ∝ wⱼ is *worse than uniform* for this
// objective by Cauchy–Schwarz — the cube root is the right exponent.) The
// scale is again fixed by the worst-case m-subset spending exactly ε.
func OptimalMSEAllocation(eps float64, weights []float64, m int) (Allocation, error) {
	cube := make([]float64, len(weights))
	for j, w := range weights {
		if !(w > 0) || math.IsInf(w, 0) || math.IsNaN(w) {
			return Allocation{}, fmt.Errorf("highdim: weight[%d]=%v must be finite and positive", j, w)
		}
		cube[j] = math.Cbrt(w)
	}
	return WeightedAllocation(eps, cube, m)
}

// Validate checks that the worst-case m-subset spend does not exceed eps.
func (a Allocation) Validate(eps float64, m int) error {
	if m < 1 || m > len(a.Eps) {
		return fmt.Errorf("highdim: m=%d out of range [1,%d]", m, len(a.Eps))
	}
	sorted := make([]float64, len(a.Eps))
	copy(sorted, a.Eps)
	for j, e := range sorted {
		if !(e > 0) {
			return fmt.Errorf("highdim: allocation[%d]=%v must be positive", j, e)
		}
	}
	slices.Sort(sorted)
	var top mathx.KahanSum
	for i := len(sorted) - 1; i >= len(sorted)-m; i-- {
		top.Add(sorted[i])
	}
	if top.Value() > eps*(1+1e-9) {
		return fmt.Errorf("highdim: worst-case m-subset spends %v > ε=%v", top.Value(), eps)
	}
	return nil
}
