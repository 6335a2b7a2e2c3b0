package highdim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/hdr4me/hdr4me/internal/dataset"
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

// StdWeights turns per-dimension standard deviations into allocation
// weights (wⱼ ∝ σⱼ, floored at 10% of the maximum so no dimension starves)
// — the heuristic of the covariance-based allocators [35]: dimensions with
// more signal spread get more budget.
func StdWeights(stds []float64) []float64 {
	maxStd := 0.0
	for _, s := range stds {
		if s > maxStd {
			maxStd = s
		}
	}
	if maxStd == 0 {
		maxStd = 1
	}
	out := make([]float64, len(stds))
	for j, s := range stds {
		out[j] = math.Max(s, maxStd/10)
	}
	return out
}

// ColumnStds streams a sample of users and returns per-dimension standard
// deviations (the collector-side input to StdWeights when a public profile
// or pilot sample is available).
func ColumnStds(ds dataset.Dataset, users int) []float64 {
	n := ds.NumUsers()
	if users > n {
		users = n
	}
	d := ds.Dim()
	ws := make([]mathx.Welford, d)
	row := make([]float64, d)
	for i := 0; i < users; i++ {
		ds.Row(i, row)
		for j, v := range row {
			ws[j].Add(v)
		}
	}
	out := make([]float64, d)
	for j := range out {
		out[j] = math.Sqrt(ws[j].Var())
	}
	return out
}

// SimulateAllocated runs a collection round where each sampled dimension j
// is perturbed with its allocated budget alloc.Eps[j] instead of the
// uniform ε/m. The aggregator's calibration still applies per dimension.
func SimulateAllocated(p Protocol, alloc Allocation, ds dataset.Dataset, rng *mathx.RNG, workers int) (*Aggregator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(alloc.Eps) != p.D {
		return nil, fmt.Errorf("highdim: allocation has %d dims, protocol says %d", len(alloc.Eps), p.D)
	}
	if err := alloc.Validate(p.Eps, p.M); err != nil {
		return nil, err
	}
	if ds.Dim() != p.D {
		return nil, fmt.Errorf("highdim: dataset has %d dims, protocol says %d", ds.Dim(), p.D)
	}
	if workers <= 0 {
		workers = 8
	}
	n := ds.NumUsers()
	if workers > n {
		workers = n
	}
	agg := NewAggregator(p)
	pert := perturbers(p.Mech, alloc.Eps)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rng.Child(uint64(w))
			row := make([]float64, p.D)
			sums := make([]mathx.KahanSum, p.D)
			counts := make([]int64, p.D)
			var dims []int
			vals := make([]float64, p.M)
			for i := w; i < n; i += workers {
				ds.Row(i, row)
				dims = wrng.SampleIndices(p.D, p.M, dims)
				for k, j := range dims { // gather, then perturb
					vals[k] = row[j]
				}
				for k, j := range dims {
					sums[j].Add(pert[j].Perturb(wrng, vals[k]))
					counts[j]++
				}
			}
			agg.merge(sums, counts)
		}(w)
	}
	wg.Wait()
	return agg, nil
}
