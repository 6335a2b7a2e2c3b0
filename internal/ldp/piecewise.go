package ldp

import (
	"math"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Piecewise is the Piecewise Mechanism of Wang et al. [11] (paper Eq. 4):
// a bounded mechanism whose output domain is [−Q, Q] with
// Q = (e^{ε/2}+1)/(e^{ε/2}−1). A high-probability band [l(t), r(t)] of width
// Q−1 is centered affinely on t; the rest of the domain receives the low
// density. The mechanism is unbiased and its variance depends on t
// (Lemma 1, Bound(M)=1).
type Piecewise struct{}

// Name implements Mechanism.
func (Piecewise) Name() string { return "Piecewise" }

// Bounded implements Mechanism.
func (Piecewise) Bounded() bool { return true }

// cm1 returns e^{ε/2} − 1 without cancellation for small ε.
func pmCm1(eps float64) float64 { return math.Expm1(eps / 2) }

// SupportBound implements Mechanism: Q = (e^{ε/2}+1)/(e^{ε/2}−1).
func (Piecewise) SupportBound(eps float64) float64 {
	cm1 := pmCm1(eps)
	return (cm1 + 2) / cm1
}

// Band returns the high-probability band [l(t), r(t)].
func (p Piecewise) Band(t, eps float64) (l, r float64) {
	return pmBand(p.SupportBound(eps), t)
}

// pmBand is Band for a precomputed Q.
func pmBand(q, t float64) (l, r float64) {
	l = (q+1)/2*t - (q-1)/2
	r = l + q - 1
	return l, r
}

// Densities returns the (high, low) densities of Eq. 4.
func (Piecewise) Densities(eps float64) (high, low float64) {
	c := math.Exp(eps / 2)
	// high = (e^ε − e^{ε/2})/(2e^{ε/2}+2) = C(C−1)/(2(C+1))
	// low  = (1 − e^{−ε/2})/(2e^{ε/2}+2) = (C−1)/(2C(C+1))
	cm1 := pmCm1(eps)
	high = c * cm1 / (2 * (c + 1))
	low = cm1 / (2 * c * (c + 1))
	return high, low
}

// PDF returns the density of the perturbed output at x given input t.
func (p Piecewise) PDF(t, eps, x float64) float64 {
	q := p.SupportBound(eps)
	if x < -q || x > q {
		return 0
	}
	l, r := p.Band(t, eps)
	high, low := p.Densities(eps)
	if x >= l && x <= r {
		return high
	}
	return low
}

// Perturb implements Mechanism. With probability e^{ε/2}/(e^{ε/2}+1) the
// output is uniform in the band; otherwise it is uniform over the two low
// tails (combined length Q+1).
func (p Piecewise) Perturb(rng *mathx.RNG, t, eps float64) float64 {
	return p.at(eps).Perturb(rng, t)
}

// pmAt is Piecewise bound to one budget ε, with its ε-only constants
// (Q and the band probability) computed once.
type pmAt struct {
	eps   float64
	q     float64 // Q = (e^{ε/2}+1)/(e^{ε/2}−1)
	pBand float64 // e^{ε/2}/(e^{ε/2}+1)
}

func (p Piecewise) at(eps float64) pmAt {
	c := math.Exp(eps / 2)
	return pmAt{eps: eps, q: p.SupportBound(eps), pBand: c / (c + 1)}
}

// Perturb implements Perturber. It is branch-free in the input and the
// draws: it always draws two values u1, u2, computes both the band output
// l + (r−l)·u2 and the tail output for w = u2·(Q+1) (tails [−Q, l) and
// (r, Q], of total length Q+1), and picks one with bit-mask selects on
// u1 < pBand and w < l+Q. Both paths of the textbook two-branch sampler
// draw two values too, so this returns what that sampler returns, bit for
// bit and draw for draw (TestPiecewiseKernelMatchesBranchyReference).
func (a pmAt) Perturb(rng *mathx.RNG, t float64) float64 {
	validate(t, a.eps)
	q := a.q
	l, r := pmBand(q, t)
	u1 := rng.Float64()
	u2 := rng.Float64()
	band := l + (r-l)*u2
	w := u2 * (q + 1)
	left := l + q
	tail := pick(w < left, -q+w, r+(w-left))
	return pick(u1 < a.pBand, band, tail)
}

// pick returns x when c holds and y otherwise, through a bit mask rather
// than a branch.
func pick(c bool, x, y float64) float64 {
	var m uint64
	if c {
		m = ^uint64(0) // a conditional move, not a jump
	}
	return math.Float64frombits(math.Float64bits(x)&m | math.Float64bits(y)&^m)
}

// Bias implements Mechanism; PM is an unbiased estimator.
func (Piecewise) Bias(t, eps float64) float64 { return 0 }

// Var implements Mechanism (paper Eq. 14, Wang et al. Theorem 2):
// Var = t²/(e^{ε/2}−1) + (e^{ε/2}+3)/(3(e^{ε/2}−1)²).
func (Piecewise) Var(t, eps float64) float64 {
	cm1 := pmCm1(eps)
	return t*t/cm1 + (cm1+4)/(3*cm1*cm1)
}

// ThirdAbsMoment implements Mechanism by exact piecewise quadrature of
// |x − t|³ against the output density (δ = 0 for PM).
func (p Piecewise) ThirdAbsMoment(t, eps float64) float64 {
	q := p.SupportBound(eps)
	l, r := p.Band(t, eps)
	f := func(x float64) float64 {
		d := math.Abs(x - t)
		return d * d * d * p.PDF(t, eps, x)
	}
	// |x−t|³ has a kink at t; the density jumps at l and r. The integrand is
	// polynomial on each smooth piece, so a modest GL order is exact.
	return mathx.PiecewiseIntegrate(f, -q, q, []float64{l, r, t}, 8)
}
