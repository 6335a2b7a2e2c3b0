package recal

import (
	"context"
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/analysis"
	"github.com/hdr4me/hdr4me/internal/dataset"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// simulate runs one uniform-budget collection round of ds through
// est.Round, one aggregator shard per worker.
func simulate(p highdim.Protocol, ds dataset.Dataset, rng *mathx.RNG, workers int) (*highdim.Aggregator, error) {
	agg := highdim.NewAggregator(p)
	shard := func() (est.Estimator, error) { return highdim.NewAggregator(p), nil }
	return agg, est.Round(context.Background(), agg, ds.NumUsers(), workers, rng, shard, est.ValueRows(ds))
}

func TestTheorem3ImprovementProbabilityEmpirically(t *testing.T) {
	// Theorem 3 end-to-end: in a regime where the framework predicts
	// improvement with probability ≈1, HDR4ME-L1 must win in (nearly) every
	// trial; in a low-noise regime where the prediction is ≈0, it must not
	// be trusted to win.
	if testing.Short() {
		t.Skip("Theorem 3 empirical check skipped in -short")
	}
	ds := dataset.Memoize(dataset.NewGaussian(2000, 40, 47))
	truth := ds.TrueMean()

	run := func(eps float64) (winRate float64, lowerBound float64) {
		p, err := highdim.NewProtocol(ldp.Laplace{}, eps, 40, 40)
		if err != nil {
			t.Fatal(err)
		}
		fw := analysis.Framework{Mech: ldp.Laplace{}, EpsPerDim: p.EpsPerDim(), R: float64(ds.NumUsers())}
		dev := fw.Deviation(nil)
		joint := analysis.Homogeneous(40, dev)
		cfg := DefaultConfig(RegL1)
		const trials = 40
		wins := 0
		rng := mathx.NewRNG(uint64(1000 * eps))
		for tr := 0; tr < trials; tr++ {
			agg, err := simulate(p, ds, rng.Child(uint64(tr)), 4)
			if err != nil {
				t.Fatal(err)
			}
			est := agg.Estimate()
			enh := Enhance(est, []analysis.Deviation{dev}, cfg)
			if norm2diff(enh, truth) < norm2diff(est, truth) {
				wins++
			}
		}
		return float64(wins) / trials, joint.Theorem3LowerBound()
	}

	// Heavy-noise regime: prediction ≈1, and the empirical win rate must
	// respect the lower bound (within binomial slack).
	winHi, lbHi := run(0.2)
	if lbHi < 0.99 {
		t.Fatalf("expected Theorem 3 bound ≈1 at ε=0.2, got %v", lbHi)
	}
	if winHi < 0.9 {
		t.Errorf("ε=0.2: win rate %v below Theorem 3 prediction %v", winHi, lbHi)
	}
	// Light-noise regime: prediction ≈0 — the theorem is silent, and
	// indeed L1 should stop winning reliably.
	winLo, lbLo := run(50)
	if lbLo > 0.1 {
		t.Fatalf("expected Theorem 3 bound ≈0 at ε=50, got %v", lbLo)
	}
	if winLo > 0.5 {
		t.Logf("note: ε=50 win rate %v (theorem silent here)", winLo)
	}
}

func norm2diff(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
