package mathx

import "math"

// KahanSum accumulates float64 values with Kahan–Babuška (Neumaier)
// compensation. It keeps the running error term so that summing n values
// loses O(1) ulps instead of O(n). The zero value is ready to use.
type KahanSum struct {
	sum float64
	c   float64 // running compensation
}

// Add accumulates x.
func (k *KahanSum) Add(x float64) {
	t := k.sum + x
	if abs(k.sum) >= abs(x) {
		k.c += (k.sum - t) + x
	} else {
		k.c += (x - t) + k.sum
	}
	k.sum = t
}

// Value returns the compensated sum.
func (k *KahanSum) Value() float64 { return k.sum + k.c }

// abs is math.Abs: branchless (compiles to a single bit-clear), which
// matters because KahanSum.Add sits on the collector ingest hot path and
// calls it twice per accumulated value.
func abs(x float64) float64 { return math.Abs(x) }

// Sum returns the compensated sum of xs.
func Sum(xs []float64) float64 {
	var k KahanSum
	for _, x := range xs {
		k.Add(x)
	}
	return k.Value()
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Welford accumulates a running mean and variance in one pass using
// Welford's online algorithm. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add accumulates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance (divides by n).
//
//hdrvet:ignore testonly -- the population variance the mathx, ldp and highdim tests compare sampled moments against
func (w *Welford) Var() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// SampleVar returns the unbiased sample variance (divides by n-1).
func (w *Welford) SampleVar() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}
