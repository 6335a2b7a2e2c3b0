package mathx

import "math"

// Clone returns a copy of xs.
func Clone(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	return out
}

// Sub returns a − b.
func Sub(a, b []float64) []float64 {
	checkLen(len(a), len(b))
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Norm2 returns the Euclidean norm ‖xs‖₂, guarding against overflow by
// scaling with the max magnitude.
func Norm2(xs []float64) float64 {
	maxAbs := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	var k KahanSum
	for _, x := range xs {
		r := x / maxAbs
		k.Add(r * r)
	}
	return maxAbs * math.Sqrt(k.Value())
}

// Dot returns the inner product ⟨a, b⟩ with compensated accumulation.
func Dot(a, b []float64) float64 {
	checkLen(len(a), len(b))
	var k KahanSum
	for i := range a {
		k.Add(a[i] * b[i])
	}
	return k.Value()
}

// Clamp returns x restricted to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func checkLen(a, b int) {
	if a != b {
		panic("mathx: slice length mismatch")
	}
}
