package exps

import (
	"context"
	"fmt"

	"github.com/hdr4me/hdr4me/internal/analysis"
	"github.com/hdr4me/hdr4me/internal/dataset"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/metrics"
	"github.com/hdr4me/hdr4me/internal/recal"
)

// SweepConfig parameterizes the Fig. 4/5 MSE sweeps.
type SweepConfig struct {
	// Trials is the number of repetitions per grid point (paper: 100).
	Trials int
	// Seed drives all randomness.
	Seed uint64
	// Conf is the λ* quantile confidence (see recal.Config).
	Conf float64
	// SpecAtoms is the per-dimension discretization order for Lemma 3.
	SpecAtoms int
	// SpecSampleUsers is how many users are streamed to build the specs.
	SpecSampleUsers int
	// Workers bounds the protocol simulation parallelism.
	Workers int
	// L2Floor, if positive, switches the L2 weights to the floored ablation
	// variant; zero keeps the paper-faithful rule.
	L2Floor float64
	// Guarded applies HDR4ME only above the Lemma 4/5 thresholds.
	Guarded bool
}

// DefaultSweepConfig mirrors the paper: 100 trials, conf 0.999.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{Trials: 100, Seed: 0xf164, Conf: 0.999, SpecAtoms: 10, SpecSampleUsers: 1000, Workers: Workers()}
}

// ScaledSweepConfig reduces trials by the scale's trial divisor.
func ScaledSweepConfig(s Scale) SweepConfig {
	c := DefaultSweepConfig()
	c.Trials = s.trials(c.Trials)
	return c
}

// MSEPoint is one grid point of a Fig. 4/5 series: the MSE of the naive
// aggregation and of HDR4ME with L1 and L2, summarized over trials.
type MSEPoint struct {
	Eps  float64
	Dims int
	Base metrics.Summary
	L1   metrics.Summary
	L2   metrics.Summary
}

// columnSpecs builds the per-dimension Lemma 3 data specs by streaming a
// sample of users.
func columnSpecs(ds dataset.Dataset, users, atoms int) []analysis.DataSpec {
	n := ds.NumUsers()
	if users > n {
		users = n
	}
	d := ds.Dim()
	cols := make([][]float64, d)
	for j := range cols {
		cols[j] = make([]float64, users)
	}
	row := make([]float64, d)
	for i := 0; i < users; i++ {
		ds.Row(i, row)
		for j, v := range row {
			cols[j][i] = v
		}
	}
	specs := make([]analysis.DataSpec, d)
	for j := range specs {
		specs[j] = analysis.SpecFromSamples(cols[j], atoms)
	}
	return specs
}

// deviations evaluates the framework for every dimension at the given
// per-dimension budget and report count.
func deviations(mech ldp.Mechanism, epsPer, r float64, specs []analysis.DataSpec, d int) []analysis.Deviation {
	fw := analysis.Framework{Mech: mech, EpsPerDim: epsPer, R: r}
	if !mech.Bounded() {
		return []analysis.Deviation{fw.Deviation(nil)}
	}
	devs := make([]analysis.Deviation, d)
	for j := range devs {
		devs[j] = fw.Deviation(&specs[j])
	}
	return devs
}

// MSEvsEps reproduces one Fig. 4 sub-figure: the MSE of baseline/L1/L2 as a
// function of the collective budget ε, with every user reporting all d
// dimensions (the paper's "to test the limit of our protocol" setting,
// m = d, so ε is partitioned across all dimensions and r = n).
func MSEvsEps(ds *dataset.Memoized, mech ldp.Mechanism, epsList []float64, cfg SweepConfig) []MSEPoint {
	return MSEvsEpsAtM(ds, mech, epsList, ds.Dim(), cfg)
}

// MSEvsEpsAtM is MSEvsEps with an explicit reported-dimension count m
// (1 ≤ m ≤ d); the m-sweep ablation uses it directly.
func MSEvsEpsAtM(ds *dataset.Memoized, mech ldp.Mechanism, epsList []float64, m int, cfg SweepConfig) []MSEPoint {
	truth := ds.TrueMean()
	d := ds.Dim()
	n := ds.NumUsers()

	var specs []analysis.DataSpec
	if mech.Bounded() {
		specs = columnSpecs(ds, cfg.SpecSampleUsers, cfg.SpecAtoms)
	}

	cfgL1 := recal.Config{Reg: recal.RegL1, Conf: cfg.Conf, Guarded: cfg.Guarded}
	cfgL2 := recal.Config{Reg: recal.RegL2, Conf: cfg.Conf, Guarded: cfg.Guarded, L2Floor: cfg.L2Floor}

	rng := mathx.NewRNG(cfg.Seed)
	points := make([]MSEPoint, 0, len(epsList))
	for ei, eps := range epsList {
		p, err := highdim.NewProtocol(mech, eps, d, m)
		if err != nil {
			panic(err)
		}
		devs := deviations(mech, p.EpsPerDim(), p.ExpectedReports(n), specs, d)
		base := make([]float64, 0, cfg.Trials)
		l1 := make([]float64, 0, cfg.Trials)
		l2 := make([]float64, 0, cfg.Trials)
		for tr := 0; tr < cfg.Trials; tr++ {
			agg := highdim.NewAggregator(p)
			shard := func() (est.Estimator, error) { return highdim.NewAggregator(p), nil }
			if err := est.Round(context.TODO(), agg, n, cfg.Workers, rng.Child(uint64(ei*100003+tr)), shard, est.ValueRows(ds)); err != nil {
				panic(err)
			}
			naive := agg.Estimate()
			base = append(base, metrics.MSE(naive, truth))
			l1 = append(l1, metrics.MSE(recal.Enhance(naive, devs, cfgL1), truth))
			l2 = append(l2, metrics.MSE(recal.Enhance(naive, devs, cfgL2), truth))
		}
		points = append(points, MSEPoint{
			Eps:  eps,
			Dims: d,
			Base: metrics.Summarize(base),
			L1:   metrics.Summarize(l1),
			L2:   metrics.Summarize(l2),
		})
	}
	return points
}

// MSEvsDims reproduces Fig. 5: MSE against dimensionality at fixed ε on the
// COV-19 stand-in, columns subsampled/recycled to each target width as the
// paper does for d = 1600.
func MSEvsDims(base dataset.Dataset, dims []int, mech ldp.Mechanism, eps float64, cfg SweepConfig) []MSEPoint {
	points := make([]MSEPoint, 0, len(dims))
	for _, d := range dims {
		ds := dataset.Memoize(dataset.Slice(base, d))
		pts := MSEvsEps(ds, mech, []float64{eps}, cfg)
		pt := pts[0]
		pt.Dims = d
		points = append(points, pt)
	}
	return points
}

// RenderMSE prints a Fig. 4/5 series as a text table keyed by ε or d.
func RenderMSE(title string, byDims bool, points []MSEPoint) string {
	out := title + "\n"
	key := "eps"
	if byDims {
		key = "dims"
	}
	out += fmt.Sprintf("%10s %14s %14s %14s %10s %10s\n", key, "baseline", "L1", "L2", "L1 gain", "L2 gain")
	for _, p := range points {
		k := fmtEps(p.Eps)
		if byDims {
			k = fmt.Sprintf("%d", p.Dims)
		}
		out += fmt.Sprintf("%10s %14.6g %14.6g %14.6g %9.2fx %9.2fx\n",
			k, p.Base.Mean, p.L1.Mean, p.L2.Mean,
			metrics.Improvement(p.Base.Mean, p.L1.Mean),
			metrics.Improvement(p.Base.Mean, p.L2.Mean))
	}
	return out
}
