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
	a := p.at(eps)
	return a.Perturb(rng, t)
}

// pmAt is Piecewise bound to one budget ε, with its ε-only constants
// (Q, the band probability, and the band's affine map l(t) = slope·t −
// offset) computed once.
type pmAt struct {
	eps    float64
	q      float64 // Q = (e^{ε/2}+1)/(e^{ε/2}−1)
	pBand  float64 // e^{ε/2}/(e^{ε/2}+1)
	slope  float64 // (Q+1)/2
	offset float64 // (Q−1)/2
}

func (p Piecewise) at(eps float64) pmAt {
	c := math.Exp(eps / 2)
	q := p.SupportBound(eps)
	return pmAt{eps: eps, q: q, pBand: c / (c + 1), slope: (q + 1) / 2, offset: (q - 1) / 2}
}

// Perturb implements Perturber. It is branch-free in the input and the
// draws: it always draws two values u1, u2, computes both the band output
// l + (r−l)·u2 and the tail output for w = u2·(Q+1) (tails [−Q, l) and
// (r, Q], of total length Q+1), and picks one with bit-mask selects on
// u1 < pBand and w < l+Q. Both paths of the textbook two-branch sampler
// draw two values too, so this returns what that sampler returns, bit for
// bit and draw for draw (TestPiecewiseKernelMatchesBranchyReference).
func (a *pmAt) Perturb(rng *mathx.RNG, t float64) float64 {
	validate(t, a.eps)
	var u [2]float64
	rng.Float64s(u[:])
	return a.release(t, u[0], u[1])
}

// perturbBatch sets dst[i] to Perturb(rng, src[idx[i]]) for each i in
// order: the same draws and the same bits as the per-value calls. It
// draws the uniforms of up to pmChunk values in one rng.Float64s call,
// in the order the per-value calls draw them (u1, u2 of value 0, then of
// value 1, …). It checks the budget once, before any draw, and not the
// values: the caller has (see PerturbBatch). Its loop spells out release's
// operations in release's order rather than calling it: Go does not
// inline release, and a call per value cost a (1024, 32) report ~80 ns
// of ~950 (BenchmarkSessionReport). TestPerturbBatchMatchesPerturb holds
// the two to the same bits.
func (a *pmAt) perturbBatch(rng *mathx.RNG, dst, src []float64, idx []uint32) {
	validateEps(a.eps)
	dst = dst[:len(idx)]
	q := a.q
	var u [2 * pmChunk]float64
	for lo := 0; lo < len(idx); lo += pmChunk {
		in := idx[lo:min(lo+pmChunk, len(idx))]
		out := dst[lo : lo+len(in)]
		draws := u[:2*len(in)]
		rng.Float64s(draws)
		for i, j := range in {
			t, u1, u2 := src[j], draws[2*i], draws[2*i+1]
			l := a.slope*t - a.offset
			r := l + q - 1
			band := l + (r-l)*u2
			w := u2 * (q + 1)
			left := l + q
			tail := pick(w < left, -q+w, r+(w-left))
			out[i] = pick(u1 < a.pBand, band, tail)
		}
	}
}

// release is the branch-free Piecewise output for a validated input t
// and its draws u1 (band or tails) and u2 (position). The band is
// pmBand's with its constants hoisted: l = (Q+1)/2·t − (Q−1)/2,
// r = l + Q − 1.
func (a *pmAt) release(t, u1, u2 float64) float64 {
	q := a.q
	l := a.slope*t - a.offset
	r := l + q - 1
	band := l + (r-l)*u2
	w := u2 * (q + 1)
	left := l + q
	tail := pick(w < left, -q+w, r+(w-left))
	return pick(u1 < a.pBand, band, tail)
}

// pmChunk is how many values perturbBatch draws for at once.
const pmChunk = 32

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
