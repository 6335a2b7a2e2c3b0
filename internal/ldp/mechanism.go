// Package ldp implements the local differential privacy perturbation
// mechanisms studied by the paper: the three it evaluates (Laplace [13],
// Piecewise [11], Square Wave [12]) and the related mechanisms it surveys
// (Duchi [27], Hybrid [11], Staircase [10]).
//
// Every mechanism perturbs a single numerical value t ∈ [−1, 1] under a
// per-dimension budget ε and additionally exposes the analytic moments the
// paper's framework consumes: the bias δ(t, ε) = E[t*] − t, the variance
// Var[t* | t], and the centered third absolute moment E|t* − t − δ|³ used by
// the Berry–Esseen bound (Theorem 2).
//
// The Bounded flag is the paper's Bound(M) classifier: bounded mechanisms
// perturb into a finite interval (so their moments depend on t, Lemma 1),
// unbounded mechanisms add data-independent noise (moments depend only
// on ε).
package ldp

import (
	"fmt"
	"math"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Mechanism is a one-dimensional ε-LDP perturbation on the domain [−1, 1].
// Implementations are stateless and safe for concurrent use; all randomness
// flows through the caller-provided RNG.
type Mechanism interface {
	// Name identifies the mechanism in reports.
	Name() string

	// Bounded reports the paper's Bound(M) flag: true if the output domain
	// [−B, B] is finite, false for additive unbounded noise.
	Bounded() bool

	// Perturb maps t ∈ [−1, 1] to its ε-LDP randomized release.
	Perturb(rng *mathx.RNG, t, eps float64) float64

	// SupportBound returns B such that outputs lie in [−B, B] for bounded
	// mechanisms; +Inf for unbounded ones.
	SupportBound(eps float64) float64

	// Bias returns δ(t, ε) = E[t* | t] − t. Zero for unbiased mechanisms.
	Bias(t, eps float64) float64

	// Var returns Var[t* | t] under budget ε.
	Var(t, eps float64) float64

	// ThirdAbsMoment returns ρ(t, ε) = E[|t* − t − δ|³ | t], the Berry–Esseen
	// ingredient of Theorem 2.
	ThirdAbsMoment(t, eps float64) float64
}

// validate panics on values outside the protocol contract; perturbing
// garbage silently would corrupt the privacy accounting. It is one
// inlinable compare on the per-value path; the panic lives in invalid.
func validate(t, eps float64) {
	if !(t >= -1 && t <= 1) || !(eps > 0 && eps <= math.MaxFloat64) {
		invalid(t, eps)
	}
}

// validateEps is validate for the budget alone: the check a batch makes
// once for all its values.
func validateEps(eps float64) {
	if !(eps > 0 && eps <= math.MaxFloat64) {
		invalid(0, eps)
	}
}

// invalid panics with validate's message. The message never names the
// input value: it is a user's private datum, and panic text reaches
// logs. The budget is public and is named.
//
//go:noinline
func invalid(t, eps float64) {
	if !(t >= -1 && t <= 1) {
		panic("ldp: input value outside [-1,1]")
	}
	panic(fmt.Sprintf("ldp: privacy budget %v must be finite and positive", eps))
}

// Registry returns all implemented mechanisms keyed by canonical name.
func Registry() map[string]Mechanism {
	return map[string]Mechanism{
		"laplace":    Laplace{},
		"piecewise":  Piecewise{},
		"squarewave": SquareWave{},
		"duchi":      Duchi{},
		"hybrid":     Hybrid{},
		"staircase":  Staircase{},
		"scdf":       SCDF{},
	}
}

// ByName resolves a mechanism by canonical name.
func ByName(name string) (Mechanism, error) {
	m, ok := Registry()[name]
	if !ok {
		return nil, fmt.Errorf("ldp: unknown mechanism %q", name)
	}
	return m, nil
}

// Evaluated returns the three mechanisms the paper's evaluation section uses,
// in the order of the figures: Laplace, Piecewise, Square Wave.
func Evaluated() []Mechanism {
	return []Mechanism{Laplace{}, Piecewise{}, SquareWave{}}
}
