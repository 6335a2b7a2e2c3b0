package exps

import (
	"fmt"
	"math"

	"github.com/hdr4me/hdr4me/internal/analysis"
	"github.com/hdr4me/hdr4me/internal/dataset"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// CLTSeries is one sub-figure of Fig. 2/3: the framework's Gaussian pdf
// (the "CLT" line) against the empirical pdf of the deviation in one
// dimension across repeated collection rounds.
type CLTSeries struct {
	Mechanism string
	Dev       analysis.Deviation
	Centers   []float64 // bin centers
	Empirical []float64 // empirical pdf estimate per bin
	Analytic  []float64 // framework pdf at bin centers
	Trials    int
}

// TotalVariationError returns (1/2)Σ|empirical − analytic|·width, a scale-
// free summary of the pdf match in [0, 1].
func (s CLTSeries) TotalVariationError() float64 {
	if len(s.Centers) < 2 {
		return 0
	}
	width := s.Centers[1] - s.Centers[0]
	var k mathx.KahanSum
	for i := range s.Centers {
		k.Add(math.Abs(s.Empirical[i] - s.Analytic[i]))
	}
	return k.Value() * width / 2
}

// Fig2Config is the Fig. 2 workload: Uniform dataset, n = 200,000,
// d = 5,000, m = 50, ε = 1, 1,000 repetitions, deviation of dimension 1.
type Fig2Config struct {
	Users, Dims, M int
	Eps            float64
	Trials         int
	Bins           int
	Seed           uint64
}

// PaperFig2Config returns the paper's configuration.
func PaperFig2Config() Fig2Config {
	return Fig2Config{Users: 200_000, Dims: 5000, M: 50, Eps: 1, Trials: 1000, Bins: 41, Seed: 0xf162}
}

// ScaledFig2Config shrinks the paper configuration by s, narrowing the
// histogram so each bin still sees enough trials for a readable pdf.
func ScaledFig2Config(s Scale) Fig2Config {
	c := PaperFig2Config()
	c.Users = s.users(c.Users)
	c.Trials = s.trials(c.Trials)
	if c.Trials < 300 {
		c.Bins = 15
	}
	return c
}

// Fig2 runs the CLT-vs-experiment comparison for one mechanism on the
// Uniform dataset (sub-figures a–c use Laplace, Piecewise, Square).
func Fig2(mech ldp.Mechanism, cfg Fig2Config) CLTSeries {
	ds := dataset.NewUniform(cfg.Users, cfg.Dims, cfg.Seed)
	col := Column(ds, 0)
	trueMean := mathx.Mean(col)

	epsPer := cfg.Eps / float64(cfg.M)
	pReport := float64(cfg.M) / float64(cfg.Dims)
	rExp := float64(cfg.Users) * pReport

	fw := analysis.Framework{Mech: mech, EpsPerDim: epsPer, R: rExp}
	var dev analysis.Deviation
	if mech.Bounded() {
		spec := analysis.SpecFromSamples(col, 20)
		dev = fw.Deviation(&spec)
	} else {
		dev = fw.Deviation(nil)
	}

	// Frame the histogram at ±4σ around δ, like the paper's axes.
	half := 4 * dev.Sigma()
	hist := mathx.NewHistogram(dev.Delta-half, dev.Delta+half, cfg.Bins)
	rng := mathx.NewRNG(cfg.Seed ^ 0xabcd)
	for tr := 0; tr < cfg.Trials; tr++ {
		hist.Add(ColumnDeviationTrial(col, trueMean, mech, epsPer, pReport, rng.Child(uint64(tr))))
	}

	s := CLTSeries{Mechanism: mech.Name(), Dev: dev, Trials: cfg.Trials}
	for i := range hist.Counts {
		c := hist.Center(i)
		s.Centers = append(s.Centers, c)
		s.Empirical = append(s.Empirical, hist.Density(i))
		s.Analytic = append(s.Analytic, dev.PDF(c))
	}
	return s
}

// RenderCLT prints a Fig. 2/3 series as an aligned text table.
func RenderCLT(s CLTSeries) string {
	out := fmt.Sprintf("%s: dev ~ N(%.6g, %.6g), %d trials, TV error %.4f\n",
		s.Mechanism, s.Dev.Delta, s.Dev.Sigma2, s.Trials, s.TotalVariationError())
	out += fmt.Sprintf("%12s %12s %12s\n", "center", "empirical", "CLT")
	for i := range s.Centers {
		out += fmt.Sprintf("%12.5g %12.5g %12.5g\n", s.Centers[i], s.Empirical[i], s.Analytic[i])
	}
	return out
}
