package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Child(0).Float64() == c.Float64() {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestRNGChildIndependence(t *testing.T) {
	r := NewRNG(7)
	c0, c1 := r.Child(0), r.Child(1)
	eq := 0
	for i := 0; i < 1000; i++ {
		if c0.Float64() == c1.Float64() {
			eq++
		}
	}
	if eq > 0 {
		t.Fatalf("child streams collide on %d of 1000 draws", eq)
	}
	// Child is a pure function of (seed, index).
	x := NewRNG(7).Child(5).Float64()
	y := NewRNG(7).Child(5).Float64()
	if x != y {
		t.Fatal("Child must be deterministic")
	}
}

func TestLaplaceMoments(t *testing.T) {
	r := NewRNG(1)
	const n = 400_000
	scale := 1.7
	var w Welford
	for i := 0; i < n; i++ {
		w.Add(r.Laplace(scale))
	}
	if math.Abs(w.Mean()) > 0.02 {
		t.Errorf("Laplace mean = %v, want ≈0", w.Mean())
	}
	want := 2 * scale * scale
	if math.Abs(w.Var()-want)/want > 0.03 {
		t.Errorf("Laplace var = %v, want ≈%v", w.Var(), want)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(2)
	var w Welford
	for i := 0; i < 200_000; i++ {
		w.Add(r.Exponential(4))
	}
	if math.Abs(w.Mean()-0.25) > 0.005 {
		t.Errorf("Exp(4) mean = %v, want 0.25", w.Mean())
	}
}

func TestGeometricDistribution(t *testing.T) {
	r := NewRNG(3)
	q := math.Exp(-0.8)
	var w Welford
	for i := 0; i < 200_000; i++ {
		w.Add(float64(r.Geometric(q)))
	}
	want := q / (1 - q)
	if math.Abs(w.Mean()-want)/want > 0.03 {
		t.Errorf("Geometric mean = %v, want %v", w.Mean(), want)
	}
	if r.Geometric(0) != 0 {
		t.Error("Geometric(0) must be 0")
	}
}

func TestPoissonSmallAndLarge(t *testing.T) {
	r := NewRNG(4)
	for _, lambda := range []float64{0.5, 4, 25, 60, 400} {
		var w Welford
		n := 120_000
		for i := 0; i < n; i++ {
			w.Add(float64(r.Poisson(lambda)))
		}
		if math.Abs(w.Mean()-lambda)/lambda > 0.03 {
			t.Errorf("Poisson(%v) mean = %v", lambda, w.Mean())
		}
		if math.Abs(w.Var()-lambda)/lambda > 0.05 {
			t.Errorf("Poisson(%v) var = %v", lambda, w.Var())
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-2) != 0 {
		t.Error("Poisson of non-positive lambda must be 0")
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(5)
	f := func(seed uint64) bool {
		x := r.Uniform(-3, 7)
		return x >= -3 && x < 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(6)
	var w Welford
	for i := 0; i < 300_000; i++ {
		w.Add(r.Normal(2, 3))
	}
	if math.Abs(w.Mean()-2) > 0.03 {
		t.Errorf("Normal mean %v", w.Mean())
	}
	if math.Abs(w.Var()-9)/9 > 0.03 {
		t.Errorf("Normal var %v", w.Var())
	}
}

func TestSampleIndicesProperties(t *testing.T) {
	r := NewRNG(8)
	var dst []uint32
	for trial := 0; trial < 200; trial++ {
		d := 1 + r.IntN(50)
		m := 1 + r.IntN(d)
		dst = r.SampleIndices(d, m, dst)
		if len(dst) != m {
			t.Fatalf("len = %d, want %d", len(dst), m)
		}
		for i, v := range dst {
			if int(v) >= d {
				t.Fatalf("index %d out of range [0,%d)", v, d)
			}
			if i > 0 && dst[i-1] >= v {
				t.Fatalf("indices not strictly increasing: %v", dst)
			}
		}
	}
}

func TestSampleIndicesMClamped(t *testing.T) {
	r := NewRNG(9)
	got := r.SampleIndices(3, 10, nil)
	if len(got) != 3 {
		t.Fatalf("m>d must clamp to d, got len %d", len(got))
	}
}

func TestSampleIndicesUniformity(t *testing.T) {
	// Each index of [0,d) should appear with frequency m/d.
	r := NewRNG(10)
	const d, m, trials = 10, 3, 60_000
	counts := make([]int, d)
	var dst []uint32
	for i := 0; i < trials; i++ {
		dst = r.SampleIndices(d, m, dst)
		for _, v := range dst {
			counts[v]++
		}
	}
	want := float64(trials) * m / d
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("index %d drawn %d times, want ≈%v", i, c, want)
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if math.Abs(float64(hits)/n-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", float64(hits)/n)
	}
}
