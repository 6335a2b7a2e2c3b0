package ldp

import (
	"math"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// SCDF is the optimal data-independent noise of Soria-Comas and
// Domingo-Ferrer [9], the unbounded mechanism the paper groups with Laplace
// and Staircase. Its noise density is the staircase shape with a fixed step
// fraction γ = 1/2 (step transitions halfway through each sensitivity-width
// interval); Geng et al. [10] later showed that optimizing γ — the
// Staircase mechanism — improves the variance further, with γ* → 0 as ε
// grows. Implementing SCDF separately lets the framework benchmark the
// historical progression Laplace → SCDF → Staircase analytically: SCDF
// beats Laplace at small-to-moderate ε but its variance floors at
// (γΔ)²/3 for large ε, where Staircase keeps winning.
type SCDF struct{}

// Name implements Mechanism.
func (SCDF) Name() string { return "SCDF" }

// Bounded implements Mechanism; the geometric tail is unbounded.
func (SCDF) Bounded() bool { return false }

// SupportBound implements Mechanism.
func (SCDF) SupportBound(eps float64) float64 { return math.Inf(1) }

// Perturb implements Mechanism.
func (s SCDF) Perturb(rng *mathx.RNG, t, eps float64) float64 {
	validate(t, eps)
	return t + staircaseNoise(rng, eps, 0.5)
}

// Bias implements Mechanism; the noise is symmetric about 0.
func (SCDF) Bias(t, eps float64) float64 { return 0 }

// Var implements Mechanism.
func (SCDF) Var(t, eps float64) float64 { return staircaseMoment(eps, 0.5, 2) }

// ThirdAbsMoment implements Mechanism.
func (SCDF) ThirdAbsMoment(t, eps float64) float64 { return staircaseMoment(eps, 0.5, 3) }
