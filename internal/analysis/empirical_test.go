package analysis

import (
	"context"
	"math"
	"testing"

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

func TestSquareWaveDeviationMatchesEmpirical(t *testing.T) {
	// The strongest Lemma 3 check: SW is biased, so both moments of the
	// framework Gaussian must match the empirical deviation distribution.
	if testing.Short() {
		t.Skip("empirical SW check skipped in -short")
	}
	const (
		n      = 5000
		d      = 4
		eps    = 0.4 // ε/m = 0.1: visible bias
		trials = 500
	)
	ds := dataset.Memoize(dataset.NewCaseStudyDiscrete(n, d, 41))
	truth := ds.TrueMean()
	p, err := highdim.NewProtocol(ldp.SquareWave{}, eps, d, d)
	if err != nil {
		t.Fatal(err)
	}
	// Lemma 3 with the realized value frequencies of dimension 0.
	col := make([]float64, n)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		ds.Row(i, row)
		col[i] = row[0]
	}
	spec := SpecFromCounts(col)
	fw := Framework{Mech: ldp.SquareWave{}, EpsPerDim: p.EpsPerDim(), R: float64(n)}
	dev := fw.Deviation(&spec)

	var w mathx.Welford
	rng := mathx.NewRNG(43)
	for tr := 0; tr < trials; tr++ {
		agg, err := simulate(p, ds, rng.Child(uint64(tr)), 4)
		if err != nil {
			t.Fatal(err)
		}
		w.Add(agg.Estimate()[0] - truth[0])
	}
	if math.Abs(w.Mean()-dev.Delta) > 6*dev.Sigma()/math.Sqrt(trials)+1e-3 {
		t.Errorf("empirical mean dev %v, framework δ %v", w.Mean(), dev.Delta)
	}
	if rel := math.Abs(w.Var()-dev.Sigma2) / dev.Sigma2; rel > 0.3 {
		t.Errorf("empirical var %v, framework σ² %v", w.Var(), dev.Sigma2)
	}
}
