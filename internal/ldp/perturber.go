package ldp

import "github.com/hdr4me/hdr4me/internal/mathx"

// Perturber is a mechanism bound to one per-value budget ε: the form the
// user-side hot paths call once per sampled value, so constants that
// depend only on ε are computed once instead of per value.
type Perturber interface {
	// Perturb maps t ∈ [−1, 1] to its ε-LDP randomized release.
	Perturb(rng *mathx.RNG, t float64) float64
}

// At binds mech to budget eps. For every mechanism and seed,
// At(mech, eps).Perturb(rng, t) returns bit for bit what
// mech.Perturb(rng, t, eps) returns and draws the same randomness.
// Piecewise gets a precomputed form; other mechanisms are forwarded
// unchanged.
func At(mech Mechanism, eps float64) Perturber {
	if p, ok := mech.(Piecewise); ok {
		return p.at(eps)
	}
	return bound{mech, eps}
}

// bound is the generic Perturber: a mechanism and its budget.
type bound struct {
	mech Mechanism
	eps  float64
}

// Perturb implements Perturber.
func (b bound) Perturb(rng *mathx.RNG, t float64) float64 { return b.mech.Perturb(rng, t, b.eps) }
