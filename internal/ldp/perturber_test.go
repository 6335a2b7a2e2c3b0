package ldp

import (
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

func TestAtMatchesPerturbBitwise(t *testing.T) {
	for name, mech := range Registry() {
		for _, eps := range []float64{0.01, 0.025, 0.5, 1, 3.7} {
			p := At(mech, eps)
			a, b := mathx.NewRNG(31), mathx.NewRNG(31)
			for i := 0; i < 2000; i++ {
				v := math.Sin(float64(i)*0.77) * float64(i%3) / 2
				got, want := p.Perturb(a, v), mech.Perturb(b, v, eps)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s ε=%v value %d: At gives %v, Perturb gives %v", name, eps, i, got, want)
				}
			}
			if a.Float64() != b.Float64() {
				t.Fatalf("%s ε=%v: At drew a different amount of randomness", name, eps)
			}
		}
	}
}

// branchyPiecewise is the textbook two-branch Piecewise sampler: it
// branches on the band draw and then on the tail side. The select-based
// pmAt kernel must match it bit for bit and draw for draw.
func branchyPiecewise(rng *mathx.RNG, t, eps float64) float64 {
	c := math.Exp(eps / 2)
	q := Piecewise{}.SupportBound(eps)
	l, r := pmBand(q, t)
	if rng.Float64() < c/(c+1) {
		return rng.Uniform(l, r)
	}
	w := rng.Float64() * (q + 1)
	if left := l + q; w < left {
		return -q + w
	} else {
		return r + (w - left)
	}
}

func TestPiecewiseKernelMatchesBranchyReference(t *testing.T) {
	for _, eps := range []float64{0.01, 0.025, 0.8, 3.7, 20} {
		p := At(Piecewise{}, eps)
		for _, v := range []float64{-1, -0.5, -1e-300, 0, 0.3, 1} {
			a, b := mathx.NewRNG(17), mathx.NewRNG(17)
			for i := 0; i < 4000; i++ {
				got, want := p.Perturb(a, v), branchyPiecewise(b, v, eps)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("ε=%v t=%v draw %d: kernel %v, reference %v", eps, v, i, got, want)
				}
			}
			if a.Float64() != b.Float64() {
				t.Fatalf("ε=%v t=%v: the kernel drew a different amount of randomness", eps, v)
			}
		}
	}
}

func TestAtValidates(t *testing.T) {
	p := At(Piecewise{}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-domain input must panic, as Mechanism.Perturb does")
		}
	}()
	p.Perturb(mathx.NewRNG(1), 1.5)
}
