package recal

import (
	"maps"
	"math"
	"slices"
	"testing"

	"github.com/hdr4me/hdr4me/internal/analysis"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// enhanceByLambda is the two-pass reference route for Enhance: the
// per-dimension weights Config.Lambda selects (the identity weight 0 where
// the guard holds off), then SoftThreshold or Shrink over the whole vector.
func enhanceByLambda(est []float64, devs []analysis.Deviation, cfg Config) []float64 {
	lambda := make([]float64, len(est))
	for j := range est {
		dev := devs[0]
		if len(devs) > 1 {
			dev = devs[j]
		}
		if cfg.Guarded && dev.SupAbs(cfg.conf()) <= cfg.threshold() {
			continue
		}
		lambda[j] = cfg.Lambda(dev)
	}
	if cfg.Reg == RegL1 {
		return SoftThreshold(est, lambda)
	}
	return Shrink(est, lambda)
}

// randomDeviation draws a framework deviation the way collectors build
// them — a registered mechanism's Lemma 2/3 moments at a random budget,
// taken to a report count — plus the edge cases: δ = 0 (an infinite paper
// L2 weight), zero variance, infinite variance, and zero-count dimensions
// (the collector clamps r to 1).
func randomDeviation(rng *mathx.RNG, mechs []ldp.Mechanism) analysis.Deviation {
	switch rng.IntN(8) {
	case 0:
		return analysis.Deviation{Delta: 0, Sigma2: rng.Uniform(0, 4)}
	case 1:
		return analysis.Deviation{Delta: rng.Uniform(-1, 1), Sigma2: 0}
	case 2:
		return analysis.Deviation{Delta: rng.Uniform(-1, 1), Sigma2: math.Inf(1)}
	}
	mech := mechs[rng.IntN(len(mechs))]
	fw := analysis.Framework{Mech: mech, EpsPerDim: rng.Uniform(0.05, 4)}
	var mom analysis.Moments
	if mech.Bounded() {
		f := rng.Float64()
		mom = fw.Moments(&analysis.DataSpec{Values: []float64{-1, rng.Uniform(-1, 1), 1}, Probs: []float64{(1 - f) / 2, f, (1 - f) / 2}})
	} else {
		mom = fw.Moments(nil)
	}
	r := 1.0 // a zero-count dimension
	if rng.Bernoulli(0.8) {
		r = float64(1 + rng.IntN(100_000))
	}
	return mom.At(r)
}

// TestEnhanceMatchesPerDimensionLambda: the one-pass Enhance equals
// SoftThreshold/Shrink applied to per-dimension Config.Lambda weights, bit
// for bit, over random estimates, deviations and configurations —
// including confidences outside (0,1) and NaN.
func TestEnhanceMatchesPerDimensionLambda(t *testing.T) {
	reg := ldp.Registry()
	var mechs []ldp.Mechanism
	for _, name := range slices.Sorted(maps.Keys(reg)) {
		mechs = append(mechs, reg[name])
	}
	confs := []float64{0.999, 0.95, 0.5, 1e-9, 0, -1, 1, 2, math.NaN()}
	floors := []float64{0, 0.05, 1}
	rng := mathx.NewRNG(41)
	for trial := 0; trial < 2000; trial++ {
		d := rng.IntN(40)
		est := make([]float64, d)
		for j := range est {
			switch rng.IntN(6) {
			case 0:
				est[j] = 0
			case 1:
				est[j] = math.Copysign(0, -1)
			default:
				est[j] = rng.Uniform(-3, 3)
			}
		}
		ndev := d
		if d == 0 || rng.Bernoulli(0.3) {
			ndev = 1
		}
		devs := make([]analysis.Deviation, ndev)
		for j := range devs {
			devs[j] = randomDeviation(rng, mechs)
		}
		cfg := Config{
			Reg:     RegL1 + Reg(rng.IntN(2)),
			Conf:    confs[rng.IntN(len(confs))],
			Guarded: rng.Bernoulli(0.5),
			L2Floor: floors[rng.IntN(len(floors))],
		}
		got, want := Enhance(est, devs, cfg), enhanceByLambda(est, devs, cfg)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d, %+v, dim %d (est %v, dev %+v): Enhance %v, per-dimension λ route %v",
					trial, cfg, j, est[j], devs[min(j, ndev-1)], got[j], want[j])
			}
		}
	}
}

func TestEnhanceUnknownRegPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Enhance([]float64{1}, make([]analysis.Deviation, 1), Config{Reg: Reg(9)})
}
