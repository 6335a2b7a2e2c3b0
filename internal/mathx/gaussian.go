package mathx

import "math"

// Sqrt2Pi is √(2π), the normalizing constant of the Gaussian density.
const Sqrt2Pi = 2.5066282746310005024157652848110452530069867406099

// NormPDF returns the density of N(mu, sigma²) at x. sigma must be > 0.
func NormPDF(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return math.Exp(-0.5*z*z) / (sigma * Sqrt2Pi)
}

// StdNormCDF returns the standard normal cumulative distribution Φ(x),
// computed from the complementary error function for full-range accuracy.
func StdNormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormProbWithin returns P[lo ≤ X ≤ hi] for X ~ N(mu, sigma²).
// It is careful in the far tails where cdf(hi)−cdf(lo) would cancel.
func NormProbWithin(lo, hi, mu, sigma float64) float64 {
	if hi < lo {
		return 0
	}
	zl := (lo - mu) / sigma
	zh := (hi - mu) / sigma
	// Work on the side with less cancellation.
	if zl >= 0 {
		// Both in the upper tail: Φ(zh)−Φ(zl) = (erfc(zl/√2)−erfc(zh/√2))/2.
		return 0.5 * (math.Erfc(zl/math.Sqrt2) - math.Erfc(zh/math.Sqrt2))
	}
	if zh <= 0 {
		return 0.5 * (math.Erfc(-zh/math.Sqrt2) - math.Erfc(-zl/math.Sqrt2))
	}
	// Straddles the mean.
	return 1 - 0.5*math.Erfc(-zl/math.Sqrt2) - 0.5*math.Erfc(zh/math.Sqrt2)
}

// StdNormQuantile returns Φ⁻¹(p) for p ∈ (0,1). It uses Acklam's rational
// approximation refined by one Halley step, giving ~1e-15 relative accuracy
// over the full open interval.
func StdNormQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		default:
			return math.NaN()
		}
	}
	// Coefficients for Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement: e = Φ(x) − p; u = e/φ(x).
	e := StdNormCDF(x) - p
	u := e * Sqrt2Pi * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// SymmetricQuantile returns the half-width w such that
// P[|X − mu| ≤ w] = conf for X ~ N(mu, sigma²); i.e. w = σ·Φ⁻¹((1+conf)/2).
func SymmetricQuantile(conf, sigma float64) float64 {
	if conf <= 0 {
		return 0
	}
	if conf >= 1 {
		return math.Inf(1)
	}
	return sigma * StdNormQuantile((1+conf)/2)
}
