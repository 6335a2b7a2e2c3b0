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

func TestAtValidates(t *testing.T) {
	p := At(Piecewise{}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-domain input must panic, as Mechanism.Perturb does")
		}
	}()
	p.Perturb(mathx.NewRNG(1), 1.5)
}
