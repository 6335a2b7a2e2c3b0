package ldp

import (
	"fmt"
	"math"
	"strings"
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

// TestPanicNamesNoValue: an out-of-domain input is a user's private
// datum, so no perturb path's panic may name it — through the
// mechanism, its Perturber, or the per-value PerturbBatch loop. (The
// Piecewise batch kernel leaves the values to its caller, which checks
// them before any draw; see PerturbBatch.)
func TestPanicNamesNoValue(t *testing.T) {
	for name, mech := range Registry() {
		paths := map[string]func(){
			"Perturb": func() { mech.Perturb(mathx.NewRNG(1), 52000.5, 1) },
			"At":      func() { At(mech, 1).Perturb(mathx.NewRNG(1), 52000.5) },
		}
		if _, kernel := At(mech, 1).(*pmAt); !kernel {
			paths["PerturbBatch"] = func() {
				PerturbBatch(At(mech, 1), mathx.NewRNG(1), make([]float64, 2), []float64{0.5, 52000.5}, []uint32{0, 1})
			}
		}
		for path, call := range paths {
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, "outside [-1,1]") || strings.Contains(msg, "52000") {
						t.Errorf("%s %s: panic %q, want the domain message without the value", name, path, msg)
					}
				}()
				call()
			}()
		}
	}
}

// TestPerturbBatchMatchesPerturb: PerturbBatch returns the per-value
// Perturb outputs of the indexed values bit for bit and leaves the stream
// where they leave it, for every mechanism and for lengths on both sides
// of the Piecewise kernel's draw chunk.
func TestPerturbBatchMatchesPerturb(t *testing.T) {
	for name, mech := range Registry() {
		for _, eps := range []float64{0.025, 0.8, 3.7} {
			p := At(mech, eps)
			for _, n := range []int{0, 1, 31, 32, 33, 64, 100} {
				src := make([]float64, 2*n+1)
				for i := range src {
					src[i] = math.Sin(float64(i)*0.77+eps) * float64(i%3) / 2
				}
				idx := make([]uint32, n)
				for i := range idx {
					idx[i] = uint32(2*(n-1-i) + i%2) // a descending gather that skips values
				}
				got := make([]float64, n)
				a, b := mathx.NewRNG(uint64(n)), mathx.NewRNG(uint64(n))
				PerturbBatch(p, a, got, src, idx)
				for i, j := range idx {
					if want := p.Perturb(b, src[j]); math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("%s ε=%v n=%d value %d: batch %v, per value %v", name, eps, n, i, got[i], want)
					}
				}
				if a.Float64() != b.Float64() {
					t.Fatalf("%s ε=%v n=%d: the batch drew a different amount of randomness", name, eps, n)
				}
			}
		}
	}
}

// TestPerturbBatchChecksBudgetOnce: the Piecewise batch kernel checks
// its budget before any draw, so an invalid ε panics with the budget
// message and leaves the RNG where it was.
func TestPerturbBatchChecksBudgetOnce(t *testing.T) {
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		a, b := mathx.NewRNG(5), mathx.NewRNG(5)
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "privacy budget") {
					t.Errorf("ε=%v: panic %q, want the budget message", eps, msg)
				}
			}()
			PerturbBatch(At(Piecewise{}, eps), a, make([]float64, 2), []float64{0.5, -0.5}, []uint32{0, 1})
		}()
		if a.Float64() != b.Float64() {
			t.Errorf("ε=%v: the rejected batch drew randomness", eps)
		}
	}
}
