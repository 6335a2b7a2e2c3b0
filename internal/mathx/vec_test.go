package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecBasics(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Sub(b, a); got[0] != 3 || got[1] != 3 || got[2] != 3 {
		t.Errorf("Sub = %v", got)
	}
	c := Clone(a)
	c[2] = 9
	if a[2] != 3 {
		t.Error("Clone must not alias")
	}
}

func TestNorms(t *testing.T) {
	v := []float64{3, -4}
	if Norm2(v) != 5 {
		t.Errorf("Norm2 = %v", Norm2(v))
	}
	if Norm2(nil) != 0 || Norm2([]float64{0, 0}) != 0 {
		t.Error("zero vectors must have zero norm")
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	v := []float64{1e200, 1e200}
	want := 1e200 * math.Sqrt2
	if got := Norm2(v); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("Norm2 overflowed: %v", got)
	}
}

func TestNormTriangleInequality(t *testing.T) {
	f := func(a, b [8]float64) bool {
		as, bs := a[:], b[:]
		for i := range as {
			as[i] = math.Mod(as[i], 100)
			bs[i] = math.Mod(bs[i], 100)
			if math.IsNaN(as[i]) {
				as[i] = 0
			}
			if math.IsNaN(bs[i]) {
				bs[i] = 0
			}
		}
		sum := make([]float64, 8)
		for i := range sum {
			sum[i] = as[i] + bs[i]
		}
		return Norm2(sum) <= Norm2(as)+Norm2(bs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, -1, 1) != 1 || Clamp(-5, -1, 1) != -1 || Clamp(0.3, -1, 1) != 0.3 {
		t.Fatal("Clamp broken")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}
