// Package analysis implements the paper's first contribution (§IV): a
// general analytical framework that, for any LDP mechanism extended to
// high-dimensional mean estimation, derives the asymptotic Gaussian law of
// the per-dimension deviation θ̂ⱼ − θ̄ⱼ (Lemmas 2 and 3), the joint
// multivariate density of the deviation vector (Theorem 1), box
// probabilities for benchmarking mechanisms against a deviation supremum
// (§IV-C, Table II), and the Berry–Esseen approximation-error bound
// (Theorem 2).
package analysis

import (
	"fmt"
	"math"
	"sort"

	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// DataSpec is a discrete model of one dimension's original-value
// distribution: Values[z] occurs with probability Probs[z]. Lemma 3 needs it
// because bounded mechanisms' moments depend on the input value; unbounded
// mechanisms (Lemma 2) ignore it. Continuous data is discretized by sampling
// (see SpecFromSamples), exactly as the paper prescribes.
type DataSpec struct {
	Values []float64
	Probs  []float64
}

// Validate checks the spec invariants.
func (s DataSpec) Validate() error {
	if len(s.Values) == 0 || len(s.Values) != len(s.Probs) {
		return fmt.Errorf("analysis: spec has %d values and %d probs", len(s.Values), len(s.Probs))
	}
	var sum float64
	for i, p := range s.Probs {
		if p < 0 {
			return fmt.Errorf("analysis: negative probability %v", p)
		}
		if s.Values[i] < -1 || s.Values[i] > 1 || math.IsNaN(s.Values[i]) {
			return fmt.Errorf("analysis: spec value %v outside [-1,1]", s.Values[i])
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("analysis: spec probabilities sum to %v", sum)
	}
	return nil
}

// UniformSpec returns a spec placing equal mass on each value.
func UniformSpec(values ...float64) DataSpec {
	probs := make([]float64, len(values))
	for i := range probs {
		probs[i] = 1 / float64(len(values))
	}
	return DataSpec{Values: values, Probs: probs}
}

// UniformGridSpec is the uninformative prior over [−1, 1]: k atoms evenly
// spaced from −1 to 1, each with probability 1/k (k ≥ 2).
func UniformGridSpec(k int) DataSpec {
	if k < 2 {
		panic(fmt.Sprintf("analysis: UniformGridSpec needs k ≥ 2, have %d", k))
	}
	vals := make([]float64, k)
	for i := range vals {
		vals[i] = -1 + 2*float64(i)/float64(k-1)
	}
	return UniformSpec(vals...)
}

// CaseStudySpec is the §IV-C workload: v = 10 values {0.1, ..., 1.0}, each
// with probability 10%.
func CaseStudySpec() DataSpec {
	vals := make([]float64, 10)
	for i := range vals {
		vals[i] = float64(i+1) / 10
	}
	return UniformSpec(vals...)
}

// SpecFromSamples discretizes an empirical column into at most k equal-mass
// atoms placed at evenly spaced order statistics — the paper's "we
// discretize them with sampling" for continuous data.
func SpecFromSamples(samples []float64, k int) DataSpec {
	if len(samples) == 0 {
		panic("analysis: no samples")
	}
	if k < 1 {
		k = 1
	}
	if k > len(samples) {
		k = len(samples)
	}
	sorted := mathx.Clone(samples)
	sort.Float64s(sorted)
	vals := make([]float64, k)
	for i := 0; i < k; i++ {
		// Midpoint of the i-th of k equal-mass blocks.
		q := (float64(i) + 0.5) / float64(k)
		idx := int(q * float64(len(sorted)))
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		vals[i] = sorted[idx]
	}
	return UniformSpec(vals...)
}

// SpecFromCounts builds a spec from a column of discrete observations by
// grouping exactly equal values and weighting by their realized frequencies.
// Use it when the data is genuinely discrete (the §IV-C / Fig. 3 workload):
// unlike the idealized design probabilities, the realized frequencies are
// what Lemma 3 sees for a concrete dataset.
func SpecFromCounts(col []float64) DataSpec {
	if len(col) == 0 {
		panic("analysis: no samples")
	}
	counts := make(map[float64]int, 16)
	for _, v := range col {
		counts[v]++
	}
	vals := make([]float64, 0, len(counts))
	for v := range counts {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	probs := make([]float64, len(vals))
	for i, v := range vals {
		probs[i] = float64(counts[v]) / float64(len(col))
	}
	return DataSpec{Values: vals, Probs: probs}
}

// Deviation is the Gaussian that approximates θ̂ⱼ − θ̄ⱼ in one dimension:
// mean Delta (the residual bias δⱼ) and variance Sigma2 (σⱼ²).
type Deviation struct {
	Delta  float64
	Sigma2 float64
}

// Sigma returns σⱼ.
func (d Deviation) Sigma() float64 { return math.Sqrt(d.Sigma2) }

// PDF evaluates the approximating Gaussian density at x.
func (d Deviation) PDF(x float64) float64 { return mathx.NormPDF(x, d.Delta, d.Sigma()) }

// ProbWithin returns P[|θ̂ⱼ − θ̄ⱼ| ≤ xi] under the Gaussian approximation —
// the per-dimension benchmarking yardstick of §IV-C.
func (d Deviation) ProbWithin(xi float64) float64 {
	return mathx.NormProbWithin(-xi, xi, d.Delta, d.Sigma())
}

// SupAbs returns the symmetric high-confidence bound on |θ̂ⱼ − θ̄ⱼ|:
// |δⱼ| + σⱼ·Φ⁻¹((1+conf)/2). The paper's sup|θ̂ⱼ−θ̄ⱼ| is infinite for a
// Gaussian, so (per §IV-B) the collector fixes a confidence and uses the
// corresponding quantile; HDR4ME's λ* selection consumes this.
func (d Deviation) SupAbs(conf float64) float64 {
	return math.Abs(d.Delta) + mathx.SymmetricQuantile(conf, d.Sigma())
}

// Framework evaluates the §IV framework for one mechanism at a given
// per-dimension budget ε/m and expected report count r = n·m/d.
type Framework struct {
	Mech      ldp.Mechanism
	EpsPerDim float64
	R         float64
}

// Moments is the count-free half of the Lemma 2/3 Gaussian: the residual
// bias δⱼ and the per-report variance whose r-th part is σⱼ². Neither
// depends on the report count r — only on the mechanism, the budget and
// the data model — so a collector evaluates them once per budget and
// re-derives the deviation for any observed count with At.
type Moments struct {
	Delta float64
	Var   float64
}

// At returns the deviation Gaussian after r reports: mean δⱼ and
// σⱼ² = Var/r.
func (m Moments) At(r float64) Deviation {
	return Deviation{Delta: m.Delta, Sigma2: m.Var / r}
}

// Moments returns the count-free Lemma 2 (unbounded) or Lemma 3 (bounded)
// moments for one dimension; f.R plays no part. spec may be nil for
// unbounded mechanisms; bounded mechanisms require it and panic otherwise
// (the framework cannot be evaluated without a data model when moments
// depend on the data).
func (f Framework) Moments(spec *DataSpec) Moments {
	if !f.Mech.Bounded() {
		// Lemma 2: δ = E[N], Var = Var[N], independent of the data.
		return Moments{Delta: f.Mech.Bias(0, f.EpsPerDim), Var: f.Mech.Var(0, f.EpsPerDim)}
	}
	if spec == nil {
		panic(fmt.Sprintf("analysis: %s is bounded; Lemma 3 needs a DataSpec", f.Mech.Name()))
	}
	return f.momentsDiscrete(*spec)
}

// Deviation returns the Lemma 2 (unbounded) or Lemma 3 (bounded) Gaussian
// for one dimension at f.R reports: f.Moments(spec).At(f.R). The moments
// do not depend on r, so callers evaluating many counts under one budget
// should compute Moments once and call At per count.
func (f Framework) Deviation(spec *DataSpec) Deviation {
	return f.Moments(spec).At(f.R)
}

// momentsDiscrete applies Lemma 3: δⱼ = Σ_z p_z δ(v_z) and
// Var = Σ_z p_z Var(v_z) (so σⱼ² = Var/r).
func (f Framework) momentsDiscrete(spec DataSpec) Moments {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	var db, vb mathx.KahanSum
	for z, v := range spec.Values {
		p := spec.Probs[z]
		db.Add(p * f.Mech.Bias(v, f.EpsPerDim))
		vb.Add(p * f.Mech.Var(v, f.EpsPerDim))
	}
	return Moments{Delta: db.Value(), Var: vb.Value()}
}

// Binary is Lemma 3 over the two-atom support {−1, 1}, the released
// frame of one histogram entry, with the mechanism's bias and variance at
// both atoms evaluated once. A collector that re-weights the atoms entry
// by entry then pays only the two-term sums per entry.
type Binary struct {
	bias, vari [2]float64 // at −1, then at 1
}

// Binary returns f's Lemma 3 evaluator over {−1, 1}.
func (f Framework) Binary() Binary {
	var b Binary
	for z, v := range [2]float64{-1, 1} {
		b.bias[z], b.vari[z] = f.Mech.Bias(v, f.EpsPerDim), f.Mech.Var(v, f.EpsPerDim)
	}
	return b
}

// Moments returns, bit for bit, what f.Moments returns for the spec
// {Values: {−1, 1}, Probs: {1−p, p}}: the same Kahan sums of the same
// products, in the same order. p must lie in [0, 1].
func (b Binary) Moments(p float64) Moments {
	var db, vb mathx.KahanSum
	for z, pz := range [2]float64{1 - p, p} {
		db.Add(pz * b.bias[z])
		vb.Add(pz * b.vari[z])
	}
	return Moments{Delta: db.Value(), Var: vb.Value()}
}

// WorstCaseDeviation returns the data-free upper envelope of the Lemma 3
// Gaussian: the maximum of Var(t) and |δ(t)| over a fine grid of t ∈ [−1,1].
// It lets a collector who knows nothing about the data pick conservative
// HDR4ME weights.
func (f Framework) WorstCaseDeviation() Deviation {
	const grid = 401
	var maxVar, maxAbsBias float64
	for i := 0; i < grid; i++ {
		t := -1 + 2*float64(i)/float64(grid-1)
		if v := f.Mech.Var(t, f.EpsPerDim); v > maxVar {
			maxVar = v
		}
		if b := math.Abs(f.Mech.Bias(t, f.EpsPerDim)); b > maxAbsBias {
			maxAbsBias = b
		}
	}
	return Moments{Delta: maxAbsBias, Var: maxVar}.At(f.R)
}
