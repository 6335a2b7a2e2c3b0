package analysis

import (
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/ldp"
)

func TestBerryEsseenLaplaceExample(t *testing.T) {
	// §IV-D worked example: with the paper's ρ = 3λ³ and r = 1000 reports,
	// the bound is ≈ 1.57%.
	got := PaperLaplaceExample(2, 1000) // λ cancels; any λ works
	if math.Abs(got-0.0157) > 0.0005 {
		t.Fatalf("paper example = %v, want ≈0.0157", got)
	}
	// λ-invariance: the bound depends only on the ratio ρ/s³.
	if a, b := PaperLaplaceExample(1, 1000), PaperLaplaceExample(10, 1000); math.Abs(a-b) > 1e-15 {
		t.Fatalf("bound must be scale-free: %v vs %v", a, b)
	}
}

func TestBerryEsseenRate(t *testing.T) {
	// The bound must decay as 1/√r.
	b1 := BerryEsseen(3, 1, 100)
	b2 := BerryEsseen(3, 1, 400)
	if math.Abs(b1/b2-2) > 1e-9 {
		t.Fatalf("rate violated: %v / %v = %v, want 2", b1, b2, b1/b2)
	}
}

func TestBerryEsseenDegenerate(t *testing.T) {
	if !math.IsInf(BerryEsseen(1, 0, 100), 1) {
		t.Error("s=0 must give +Inf")
	}
	if !math.IsInf(BerryEsseen(1, 1, 0), 1) {
		t.Error("r=0 must give +Inf")
	}
}

func TestFrameworkBerryEsseenUnbounded(t *testing.T) {
	f := Framework{Mech: ldp.Laplace{}, EpsPerDim: 0.5, R: 1000}
	got := f.BerryEsseenBound(nil)
	lam := ldp.Laplace{}.Scale(0.5)
	want := BerryEsseen(6*lam*lam*lam, math.Sqrt(2)*lam, 1000)
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("bound %v, want %v", got, want)
	}
	// With the exact ρ = 6λ³ the bound is ≈2.7% at r=1000 (vs the paper's
	// 1.57% from the one-sided ρ = 3λ³); both decay as 1/√r.
	if got < 0.02 || got > 0.035 {
		t.Errorf("bound = %v, want ≈0.027", got)
	}
}

func TestFrameworkBerryEsseenBounded(t *testing.T) {
	spec := CaseStudySpec()
	f := Framework{Mech: ldp.Piecewise{}, EpsPerDim: 0.5, R: 1000}
	got := f.BerryEsseenBound(&spec)
	if got <= 0 || math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("bound = %v", got)
	}
	// More reports → smaller bound.
	f2 := Framework{Mech: ldp.Piecewise{}, EpsPerDim: 0.5, R: 100000}
	if f2.BerryEsseenBound(&spec) >= got {
		t.Error("bound must shrink with r")
	}
}

func TestFrameworkBerryEsseenBoundedNeedsSpec(t *testing.T) {
	f := Framework{Mech: ldp.SquareWave{}, EpsPerDim: 0.5, R: 100}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.BerryEsseenBound(nil)
}

// PaperLaplaceExample reproduces the §IV-D worked example: Laplace noise
// with scale λ = 2m/ε, r reports, and the paper's ρ = 3λ³ (the paper's
// Eq. 21 evaluates the one-sided integral; the exact two-sided moment is
// 6λ³ — see ldp.Laplace.ThirdAbsMoment). Returned is the bound with the
// paper's ρ so the ≈1.57% figure can be checked verbatim.
func PaperLaplaceExample(lambda float64, r float64) float64 {
	rho := 3 * lambda * lambda * lambda
	s := math.Sqrt2 * lambda
	return BerryEsseen(rho, s, r)
}
