package mathx

import (
	"math"
	"sync"
)

// Integrate computes ∫_a^b f(x) dx with adaptive Simpson quadrature to the
// given absolute tolerance. It handles a > b by sign flip. The recursion is
// depth-limited; for smooth integrands the result is accurate to ~tol.
//
//hdrvet:ignore testonly -- adaptive Simpson is the independent quadrature the mathx and ldp tests check the Gauss–Legendre moments against
func Integrate(f func(float64) float64, a, b, tol float64) float64 {
	if a == b {
		return 0
	}
	sign := 1.0
	if a > b {
		a, b = b, a
		sign = -1
	}
	if tol <= 0 {
		tol = 1e-10
	}
	c := (a + b) / 2
	fa, fb, fc := f(a), f(b), f(c)
	whole := simpson(a, b, fa, fc, fb)
	return sign * adaptiveSimpson(f, a, b, fa, fc, fb, whole, tol, 52)
}

func simpson(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

func adaptiveSimpson(f func(float64) float64, a, b, fa, fm, fb, whole, tol float64, depth int) float64 {
	c := (a + b) / 2
	lm := (a + c) / 2
	rm := (c + b) / 2
	flm, frm := f(lm), f(rm)
	left := simpson(a, c, fa, flm, fm)
	right := simpson(c, b, fm, frm, fb)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*tol {
		return left + right + (left+right-whole)/15
	}
	return adaptiveSimpson(f, a, c, fa, flm, fm, left, tol/2, depth-1) +
		adaptiveSimpson(f, c, b, fm, frm, fb, right, tol/2, depth-1)
}

// glCache memoizes Gauss–Legendre nodes/weights per order.
var glCache sync.Map // int -> *glRule

type glRule struct {
	x []float64 // nodes on [-1,1]
	w []float64 // weights
}

// gaussLegendreRule computes (and caches) the n-point Gauss–Legendre rule on
// [-1, 1] using Newton iteration on the Legendre polynomial P_n.
func gaussLegendreRule(n int) *glRule {
	if v, ok := glCache.Load(n); ok {
		return v.(*glRule)
	}
	r := &glRule{x: make([]float64, n), w: make([]float64, n)}
	m := (n + 1) / 2
	for i := 0; i < m; i++ {
		// Chebyshev-like initial guess.
		x := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var pp float64
		for iter := 0; iter < 100; iter++ {
			p0, p1 := 1.0, 0.0
			for j := 0; j < n; j++ {
				p2 := p1
				p1 = p0
				p0 = ((2*float64(j)+1)*x*p1 - float64(j)*p2) / float64(j+1)
			}
			// p0 = P_n(x); derivative via recurrence.
			pp = float64(n) * (x*p0 - p1) / (x*x - 1)
			dx := p0 / pp
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		r.x[i] = -x
		r.x[n-1-i] = x
		w := 2 / ((1 - x*x) * pp * pp)
		r.w[i] = w
		r.w[n-1-i] = w
	}
	glCache.Store(n, r)
	return r
}

// GaussLegendre computes ∫_a^b f(x) dx with an n-point Gauss–Legendre rule.
// It is exact for polynomials of degree ≤ 2n−1 and very efficient for the
// smooth densities used throughout this library.
func GaussLegendre(f func(float64) float64, a, b float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	r := gaussLegendreRule(n)
	half := (b - a) / 2
	mid := (a + b) / 2
	var k KahanSum
	for i := 0; i < n; i++ {
		k.Add(r.w[i] * f(mid+half*r.x[i]))
	}
	return half * k.Value()
}

// PiecewiseIntegrate integrates f over [a,b] split at interior breakpoints,
// applying an n-point Gauss–Legendre rule on each smooth piece. Breakpoints
// outside (a,b) are ignored; the list need not be sorted or unique.
func PiecewiseIntegrate(f func(float64) float64, a, b float64, breaks []float64, n int) float64 {
	pts := make([]float64, 0, len(breaks)+2)
	pts = append(pts, a)
	for _, p := range breaks {
		if p > a && p < b {
			pts = append(pts, p)
		}
	}
	pts = append(pts, b)
	sortFloat64s(pts)
	var k KahanSum
	for i := 0; i+1 < len(pts); i++ {
		if pts[i+1] > pts[i] {
			k.Add(GaussLegendre(f, pts[i], pts[i+1], n))
		}
	}
	return k.Value()
}

func sortFloat64s(xs []float64) {
	// Insertion sort: break lists here are tiny (≤ 8 points).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
