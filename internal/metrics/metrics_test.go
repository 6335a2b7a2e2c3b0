package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMSEKnown(t *testing.T) {
	est := []float64{1, 2, 3}
	truth := []float64{0, 2, 5}
	// (1 + 0 + 4)/3
	if got := MSE(est, truth); math.Abs(got-5.0/3) > 1e-15 {
		t.Fatalf("MSE = %v", got)
	}
}

func TestMSEIsL2SquaredOverD(t *testing.T) {
	// The paper's identity: MSE = ‖θ̂−θ̄‖²₂ / d (text after Eq. 3).
	f := func(a, b [6]float64) bool {
		as, bs := sanitize(a[:]), sanitize(b[:])
		mse := MSE(as, bs)
		l2 := L2Deviation(as, bs)
		return math.Abs(mse-l2*l2/6) <= 1e-9*(1+mse)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sanitize(xs []float64) []float64 {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			xs[i] = 0
		} else {
			xs[i] = math.Mod(x, 10)
		}
	}
	return xs
}

func TestMSEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MSE([]float64{1}, []float64{1, 2})
}

func TestMSEEmpty(t *testing.T) {
	if MSE(nil, nil) != 0 {
		t.Fatal("empty MSE must be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	wantStd := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Fatalf("std = %v, want %v", s.Std, wantStd)
	}
	if s.halfCI95 <= 0 {
		t.Fatal("CI must be positive for n>1")
	}
	if s.String() == "" {
		t.Fatal("String must render")
	}
}

func TestSummarizeDegenerate(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	if s := Summarize([]float64{7}); s.halfCI95 != 0 || s.Mean != 7 {
		t.Fatalf("single-value summary = %+v", s)
	}
}

func TestImprovement(t *testing.T) {
	if Improvement(4, 2) != 2 {
		t.Fatal("4/2 should be 2")
	}
	if !math.IsInf(Improvement(1, 0), 1) {
		t.Fatal("enhanced=0 should be +Inf")
	}
	if Improvement(0, 0) != 1 {
		t.Fatal("0/0 should be 1")
	}
}
