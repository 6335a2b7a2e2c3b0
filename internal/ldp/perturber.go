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
		a := p.at(eps)
		return &a
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

// PerturbBatch sets dst[i] to p's release of src[idx[i]] for every i of
// idx, drawing from rng exactly as len(idx) successive
// p.Perturb(rng, src[idx[i]]) calls do, so the outputs are bit for bit
// the same. dst must hold len(idx) values and must not overlap src. A
// Piecewise perturber runs one batch kernel, which checks its budget
// once and leaves the values to the caller: every src[idx[i]] must lie
// in [−1, 1], as highdim's report path checks before any draw. Any
// other perturber runs the per-value loop, which panics on an invalid
// value as Perturb does. The values are read from src where they
// stand, so a caller hands over its raw tuple and the sampled indices,
// never a copy of the raw values.
func PerturbBatch(p Perturber, rng *mathx.RNG, dst, src []float64, idx []uint32) {
	if a, ok := p.(*pmAt); ok {
		a.perturbBatch(rng, dst, src, idx)
		return
	}
	dst = dst[:len(idx)]
	for i, j := range idx {
		dst[i] = p.Perturb(rng, src[j])
	}
}
