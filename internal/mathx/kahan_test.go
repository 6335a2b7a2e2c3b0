package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKahanSumExactCancellation(t *testing.T) {
	var k KahanSum
	k.Add(1e16)
	k.Add(1)
	k.Add(-1e16)
	if got := k.Value(); got != 1 {
		t.Fatalf("compensated sum = %v, want 1", got)
	}
}

func TestKahanSumManySmall(t *testing.T) {
	var k KahanSum
	const n = 1_000_000
	for i := 0; i < n; i++ {
		k.Add(0.1)
	}
	want := 0.1 * n
	if got := k.Value(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum of 1e6 × 0.1 = %v, want %v ± 1e-6", got, want)
	}
}

// Reset clears the accumulator.
func (k *KahanSum) Reset() { k.sum, k.c = 0, 0 }

func TestKahanReset(t *testing.T) {
	var k KahanSum
	k.Add(5)
	k.Reset()
	if k.Value() != 0 {
		t.Fatalf("after Reset, Value = %v, want 0", k.Value())
	}
}

func TestSumMatchesNaiveOnSmallInputs(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
			// Keep magnitudes modest so naive summation is also exact-ish.
			xs[i] = math.Mod(xs[i], 1000)
		}
		naive := 0.0
		for _, x := range xs {
			naive += x
		}
		got := Sum(xs)
		return math.Abs(got-naive) <= 1e-6*(1+math.Abs(naive))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestWelfordMatchesDirect(t *testing.T) {
	rng := NewRNG(7)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.Normal(3, 2)
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	mean := Mean(xs)
	var ss KahanSum
	for _, x := range xs {
		d := x - mean
		ss.Add(d * d)
	}
	wantVar := ss.Value() / float64(len(xs))
	if math.Abs(w.Mean()-mean) > 1e-10 {
		t.Errorf("Welford mean %v, want %v", w.Mean(), mean)
	}
	if math.Abs(w.Var()-wantVar) > 1e-9 {
		t.Errorf("Welford var %v, want %v", w.Var(), wantVar)
	}
	if w.n != len(xs) {
		t.Errorf("Welford n %d, want %d", w.n, len(xs))
	}
}

func TestWelfordSampleVarSmallN(t *testing.T) {
	var w Welford
	if w.Var() != 0 || w.SampleVar() != 0 {
		t.Fatal("zero-value Welford must report zero variance")
	}
	w.Add(4)
	if w.SampleVar() != 0 {
		t.Fatal("SampleVar with n=1 must be 0")
	}
	w.Add(8)
	if got, want := w.SampleVar(), 8.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("SampleVar = %v, want %v", got, want)
	}
}

func TestVarianceConstantSeries(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 2, 2, 2} {
		w.Add(x)
	}
	if got := w.Var(); got != 0 {
		t.Fatalf("Variance of constants = %v, want 0", got)
	}
}
