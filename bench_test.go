package hdr4me

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section. Run:
//
//	go test -bench=. -benchmem                 # CI scale (shapes preserved)
//	HDR4ME_SCALE=paper go test -bench=Fig4 -timeout=6h
//
// Each benchmark prints the rows/series the corresponding paper artifact
// reports (via b.Log), so `go test -bench=. -v` doubles as the experiment
// driver; cmd/hdrbench offers the same through a CLI.

import (
	"fmt"
	"os"
	"testing"

	"github.com/hdr4me/hdr4me/internal/dist"
	"github.com/hdr4me/hdr4me/internal/exps"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/recal"
)

// benchScale picks paper scale when HDR4ME_SCALE=paper, else a CI-friendly
// reduction (users/20, trials/20).
func benchScale() exps.Scale {
	if os.Getenv("HDR4ME_SCALE") == "paper" {
		return exps.PaperScale()
	}
	return exps.Scale{UsersDiv: 20, TrialsDiv: 10}
}

// ---- Table II -------------------------------------------------------------

func BenchmarkTable2_SupremumProbabilities(b *testing.B) {
	var rows []TableIIRow
	for i := 0; i < b.N; i++ {
		rows = exps.TableII()
	}
	b.Log("\n" + exps.RenderTableII(rows))
}

// ---- Fig. 2: analysis vs experiment on Uniform (d = 5000) -----------------

func benchFig2(b *testing.B, mech Mechanism) {
	cfg := exps.ScaledFig2Config(benchScale())
	var s exps.CLTSeries
	for i := 0; i < b.N; i++ {
		s = exps.Fig2(mech, cfg)
	}
	b.ReportMetric(s.TotalVariationError(), "tv-error")
	b.Log("\n" + exps.RenderCLT(s))
}

func BenchmarkFig2_CLTvsExperiment_Laplace(b *testing.B)   { benchFig2(b, Laplace()) }
func BenchmarkFig2_CLTvsExperiment_Piecewise(b *testing.B) { benchFig2(b, Piecewise()) }
func BenchmarkFig2_CLTvsExperiment_Square(b *testing.B)    { benchFig2(b, SquareWave()) }

// ---- Fig. 3: the §IV-C case study -----------------------------------------

func BenchmarkFig3_CaseStudy_Piecewise(b *testing.B) {
	cfg := exps.ScaledFig3Config(benchScale())
	var s exps.CLTSeries
	for i := 0; i < b.N; i++ {
		s = exps.Fig3Piecewise(cfg)
	}
	b.ReportMetric(s.TotalVariationError(), "tv-error")
	b.Log("\n" + exps.RenderCLT(s))
}

func BenchmarkFig3_CaseStudy_Square(b *testing.B) {
	cfg := exps.ScaledFig3Config(benchScale())
	var s exps.CLTSeries
	for i := 0; i < b.N; i++ {
		s = exps.Fig3Square(cfg)
	}
	b.ReportMetric(s.TotalVariationError(), "tv-error")
	b.Log("\n" + exps.RenderCLT(s))
}

// ---- Fig. 4: MSE vs ε on four datasets × three mechanisms ------------------

type fig4Case struct {
	name string
	ds   func(exps.PaperDatasets) *Memoized
	mech Mechanism
	eps  []float64
}

func fig4Cases() []fig4Case {
	return []fig4Case{
		{"Gaussian_Laplace", func(p exps.PaperDatasets) *Memoized { return p.Gaussian }, Laplace(), exps.LaplacePMEps},
		{"Gaussian_Piecewise", func(p exps.PaperDatasets) *Memoized { return p.Gaussian }, Piecewise(), exps.LaplacePMEps},
		{"Gaussian_Square", func(p exps.PaperDatasets) *Memoized { return p.Gaussian }, SquareWave(), exps.SquareEps},
		{"Poisson_Laplace", func(p exps.PaperDatasets) *Memoized { return p.Poisson }, Laplace(), exps.LaplacePMEps},
		{"Poisson_Piecewise", func(p exps.PaperDatasets) *Memoized { return p.Poisson }, Piecewise(), exps.LaplacePMEps},
		{"Poisson_Square", func(p exps.PaperDatasets) *Memoized { return p.Poisson }, SquareWave(), exps.SquareEps},
		{"Uniform_Laplace", func(p exps.PaperDatasets) *Memoized { return p.Uniform }, Laplace(), exps.LaplacePMEps},
		{"Uniform_Piecewise", func(p exps.PaperDatasets) *Memoized { return p.Uniform }, Piecewise(), exps.LaplacePMEps},
		{"Uniform_Square", func(p exps.PaperDatasets) *Memoized { return p.Uniform }, SquareWave(), exps.SquareEps},
		{"COV19_Laplace", func(p exps.PaperDatasets) *Memoized { return p.COV19 }, Laplace(), exps.LaplacePMEps},
		{"COV19_Piecewise", func(p exps.PaperDatasets) *Memoized { return p.COV19 }, Piecewise(), exps.LaplacePMEps},
		{"COV19_Square", func(p exps.PaperDatasets) *Memoized { return p.COV19 }, SquareWave(), exps.SquareEps},
	}
}

func benchFig4(b *testing.B, c fig4Case) {
	scale := benchScale()
	sets := exps.NewPaperDatasets(scale)
	cfg := exps.ScaledSweepConfig(scale)
	var pts []exps.MSEPoint
	for i := 0; i < b.N; i++ {
		pts = exps.MSEvsEps(c.ds(sets), c.mech, c.eps, cfg)
	}
	b.Log("\n" + exps.RenderMSE("Fig. 4 "+c.name, false, pts))
}

func BenchmarkFig4_Gaussian_Laplace(b *testing.B)   { benchFig4(b, fig4Cases()[0]) }
func BenchmarkFig4_Gaussian_Piecewise(b *testing.B) { benchFig4(b, fig4Cases()[1]) }
func BenchmarkFig4_Gaussian_Square(b *testing.B)    { benchFig4(b, fig4Cases()[2]) }
func BenchmarkFig4_Poisson_Laplace(b *testing.B)    { benchFig4(b, fig4Cases()[3]) }
func BenchmarkFig4_Poisson_Piecewise(b *testing.B)  { benchFig4(b, fig4Cases()[4]) }
func BenchmarkFig4_Poisson_Square(b *testing.B)     { benchFig4(b, fig4Cases()[5]) }
func BenchmarkFig4_Uniform_Laplace(b *testing.B)    { benchFig4(b, fig4Cases()[6]) }
func BenchmarkFig4_Uniform_Piecewise(b *testing.B)  { benchFig4(b, fig4Cases()[7]) }
func BenchmarkFig4_Uniform_Square(b *testing.B)     { benchFig4(b, fig4Cases()[8]) }
func BenchmarkFig4_COV19_Laplace(b *testing.B)      { benchFig4(b, fig4Cases()[9]) }
func BenchmarkFig4_COV19_Piecewise(b *testing.B)    { benchFig4(b, fig4Cases()[10]) }
func BenchmarkFig4_COV19_Square(b *testing.B)       { benchFig4(b, fig4Cases()[11]) }

// ---- Fig. 5: MSE vs dimensionality on COV-19, ε = 0.8 ----------------------

func benchFig5(b *testing.B, mech Mechanism) {
	scale := benchScale()
	base := exps.NewPaperDatasets(scale).COV19
	cfg := exps.ScaledSweepConfig(scale)
	dims := []int{50, 100, 200, 400, 800, 1600}
	var pts []exps.MSEPoint
	for i := 0; i < b.N; i++ {
		pts = exps.MSEvsDims(base, dims, mech, 0.8, cfg)
	}
	b.Log("\n" + exps.RenderMSE("Fig. 5 "+mech.Name(), true, pts))
}

func BenchmarkFig5_Dimensions_Laplace(b *testing.B)   { benchFig5(b, Laplace()) }
func BenchmarkFig5_Dimensions_Piecewise(b *testing.B) { benchFig5(b, Piecewise()) }

// ---- Ablations (DESIGN.md) --------------------------------------------------

func BenchmarkAblation_LambdaConfidence(b *testing.B) {
	scale := benchScale()
	ds := exps.NewPaperDatasets(scale).Gaussian
	cfg := exps.ScaledSweepConfig(scale)
	var pts []exps.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = exps.AblationLambdaConfidence(ds, Laplace(), 0.4, []float64{0.9, 0.99, 0.999, 0.9999}, cfg)
	}
	b.Log("\n" + exps.RenderAblation("λ* confidence sweep (Laplace, Gaussian, ε=0.4)", pts))
}

func BenchmarkAblation_GuardedRecalibration(b *testing.B) {
	scale := benchScale()
	ds := exps.NewPaperDatasets(scale).Gaussian
	cfg := exps.ScaledSweepConfig(scale)
	var pts []exps.AblationPoint
	for i := 0; i < b.N; i++ {
		// Square Wave is where the guard earns its keep (Lemma 4/5
		// thresholds unmet → recalibration harmful).
		pts = exps.AblationGuarded(ds, SquareWave(), 100, cfg)
	}
	b.Log("\n" + exps.RenderAblation("guarded vs always-on (SquareWave, Gaussian, ε=100)", pts))
}

func BenchmarkAblation_L2Floor(b *testing.B) {
	scale := benchScale()
	ds := exps.NewPaperDatasets(scale).Gaussian
	cfg := exps.ScaledSweepConfig(scale)
	var pts []exps.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = exps.AblationL2Floor(ds, Laplace(), 0.4, []float64{0.01, 0.05, 0.2}, cfg)
	}
	b.Log("\n" + exps.RenderAblation("L2 weight floor (Laplace, Gaussian, ε=0.4)", pts))
}

func BenchmarkAblation_SamplingM(b *testing.B) {
	scale := benchScale()
	ds := exps.NewPaperDatasets(scale).Gaussian
	cfg := exps.ScaledSweepConfig(scale)
	var pts []exps.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = exps.AblationSamplingM(ds, Piecewise(), 0.8, []int{1, 10, 25, 50, 100}, cfg)
	}
	b.Log("\n" + exps.RenderAblation("reported dimensions m (Piecewise, Gaussian, ε=0.8)", pts))
}

func BenchmarkAblation_PGDvsClosedForm(b *testing.B) {
	// The paper's PGD derivation vs the Eq. 34 one-off solver: identical
	// fixed point, very different cost.
	const d = 10_000
	naive := make([]float64, d)
	lambda := make([]float64, d)
	rng := mathx.NewRNG(1)
	for j := range naive {
		naive[j] = rng.Uniform(-5, 5)
		lambda[j] = rng.Uniform(0, 2)
	}
	b.Run("ClosedForm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			recal.SoftThreshold(naive, lambda)
		}
	})
	b.Run("PGD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			recal.PGD(recal.AggregationGrad(naive), recal.ProxL1(lambda), make([]float64, d), 1, 50, 1e-12)
		}
	})
}

func BenchmarkAblation_EMSvsNaiveSquareWave(b *testing.B) {
	// The paper aggregates SW reports naively (bias and all); SW's native
	// estimator is EMS deconvolution. This ablation quantifies what the
	// naive pipeline leaves on the table for mean estimation.
	rng := mathx.NewRNG(71)
	col := make([]float64, 20_000)
	for i := range col {
		col[i] = mathx.Clamp(rng.Normal(0.6, 0.15), -1, 1)
	}
	trueMean := mathx.Mean(col)
	const eps = 0.5
	var naiveErr, emsErr float64
	for i := 0; i < b.N; i++ {
		sw := ldp.SquareWave{}
		var naive mathx.KahanSum
		crng := rng.Child(uint64(i))
		for _, v := range col {
			naive.Add(sw.Perturb(crng, v, eps))
		}
		naiveErr = naive.Value()/float64(len(col)) - trueMean
		e := dist.NewEMS(eps)
		res, err := e.CollectAndEstimate(col, rng.Child(uint64(1000+i)))
		if err != nil {
			b.Fatal(err)
		}
		emsErr = res.MeanCentered() - trueMean
	}
	b.Logf("\nSW mean error: naive %.5f vs EMS %.5f (true mean %.4f, ε=%g)", naiveErr, emsErr, trueMean, eps)
}

func BenchmarkAblation_DuchiMDvsSampling(b *testing.B) {
	// The two high-dimensional strategies at equal ε: Duchi et al.'s
	// whole-tuple mechanism vs the sampling protocol it predates.
	ds := Memoize(NewGaussianDataset(20_000, 20, 73))
	truth := ds.TrueMean()
	const eps = 1.0
	var mdMSE, sampMSE float64
	for i := 0; i < b.N; i++ {
		m, err := highdim.NewDuchiMD(20, eps)
		if err != nil {
			b.Fatal(err)
		}
		est, err := highdim.SimulateDuchiMD(m, ds, mathx.NewRNG(uint64(i)), 0)
		if err != nil {
			b.Fatal(err)
		}
		mdMSE = MSE(est, truth)
		p, err := NewProtocol(Duchi(), eps, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
		agg, err := highdim.Simulate(p, ds, NewRNG(uint64(100+i)), 0)
		if err != nil {
			b.Fatal(err)
		}
		sampMSE = MSE(agg.Estimate(), truth)
	}
	b.Logf("\nMSE at ε=%g, d=20: duchi-md %.6g vs sampling(m=1) %.6g", eps, mdMSE, sampMSE)
}

// ---- Micro-benchmarks: perturbation throughput ------------------------------

func benchPerturb(b *testing.B, mech Mechanism) {
	rng := mathx.NewRNG(9)
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += mech.Perturb(rng, 0.3, 0.5)
	}
	_ = sink
}

func BenchmarkPerturb_Laplace(b *testing.B)    { benchPerturb(b, Laplace()) }
func BenchmarkPerturb_Piecewise(b *testing.B)  { benchPerturb(b, Piecewise()) }
func BenchmarkPerturb_SquareWave(b *testing.B) { benchPerturb(b, SquareWave()) }
func BenchmarkPerturb_Duchi(b *testing.B)      { benchPerturb(b, Duchi()) }
func BenchmarkPerturb_Hybrid(b *testing.B)     { benchPerturb(b, Hybrid()) }
func BenchmarkPerturb_Staircase(b *testing.B)  { benchPerturb(b, Staircase()) }
func BenchmarkPerturb_SCDF(b *testing.B)       { benchPerturb(b, SCDF()) }

func BenchmarkSimulateRound(b *testing.B) {
	ds := Memoize(NewGaussianDataset(10_000, 100, 3))
	p, err := NewProtocol(Piecewise(), 1, 100, 100)
	if err != nil {
		b.Fatal(err)
	}
	rng := mathx.NewRNG(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := highdim.Simulate(p, ds, rng.Child(uint64(i)), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLdpRegistryLookup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ldp.ByName("piecewise"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionReport is the randomize layer of the performance ledger:
// one user's Session.Report (sample m of d dimensions, perturb each with
// ε/m) across the ledger's report shapes. Run with -benchmem; the
// allocation column should stay at the report's own Dims/Values. The
// 64-tuple pools stay in cache; the 2048-tuple pool at (1024,32) is 16 MB,
// so each sampled value load misses cache as it does under a real
// population.
func BenchmarkSessionReport(b *testing.B) {
	for _, sh := range []struct{ d, m, pool int }{
		{32, 1, 64}, {256, 8, 64}, {1024, 32, 64}, {1024, 32, 2048},
	} {
		b.Run(fmt.Sprintf("d=%d/m=%d/pool=%d", sh.d, sh.m, sh.pool), func(b *testing.B) {
			s, err := New(WithMechanism(Piecewise()), WithBudget(0.8), WithDims(sh.d, sh.m))
			if err != nil {
				b.Fatal(err)
			}
			tuples := make([]Tuple, sh.pool)
			for i := range tuples {
				tuples[i] = goldenTuple(i, sh.d)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Report(tuples[i%len(tuples)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnhanced is the query side of the performance ledger: one
// collector-side Session.EstimateEnhanced (snapshot, naive estimate,
// per-dimension deviations from the cached §IV moments, one-pass HDR4ME)
// under L1 and L2 across the ledger's shapes. Run with -benchmem.
func BenchmarkEnhanced(b *testing.B) {
	for _, reg := range []Reg{RegL1, RegL2} {
		for _, sh := range []struct{ d, m int }{{32, 1}, {256, 8}, {1024, 32}} {
			b.Run(fmt.Sprintf("%s/d=%d/m=%d", reg, sh.d, sh.m), func(b *testing.B) {
				s, err := New(WithMechanism(Piecewise()), WithBudget(0.8), WithDims(sh.d, sh.m),
					WithEnhance(DefaultEnhanceConfig(reg)))
				if err != nil {
					b.Fatal(err)
				}
				for u := 0; u < 256; u++ {
					if err := s.Observe(goldenTuple(u, sh.d)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.EstimateEnhanced(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
