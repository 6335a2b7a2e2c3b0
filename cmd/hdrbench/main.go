// Command hdrbench regenerates the paper's tables and figures from the
// command line:
//
//	hdrbench -exp table2
//	hdrbench -exp fig4 -scale quick
//	hdrbench -exp families                # the three Session estimator families
//	hdrbench -exp all -scale paper        # the full evaluation (hours)
//
// Output is the text form of each artifact: Table II rows, Fig. 2/3 pdf
// series, Fig. 4/5 MSE tables, the DESIGN.md ablations, and a comparison
// of the three unified-API estimator families. Ctrl-C cancels the
// families run mid-flight.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	hdr4me "github.com/hdr4me/hdr4me"
	"github.com/hdr4me/hdr4me/internal/dataset"
	"github.com/hdr4me/hdr4me/internal/exps"
	"github.com/hdr4me/hdr4me/internal/ldp"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table2|fig2|fig3|fig4|fig5|ablations|families|all")
	scaleName := flag.String("scale", "quick", "experiment scale: quick|paper")
	plot := flag.Bool("plot", false, "render ASCII charts in addition to tables")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var scale exps.Scale
	switch *scaleName {
	case "quick":
		scale = exps.QuickScale()
	case "paper":
		scale = exps.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "hdrbench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	run := func(name string, fn func()) {
		if *exp == name || *exp == "all" {
			fn()
		}
	}

	run("table2", func() {
		fmt.Println(exps.RenderTableII(exps.TableII()))
	})

	run("fig2", func() {
		cfg := exps.ScaledFig2Config(scale)
		fmt.Printf("Fig. 2 — analysis vs experiment, Uniform (n=%d, d=%d, m=%d, ε=%g, %d trials)\n\n",
			cfg.Users, cfg.Dims, cfg.M, cfg.Eps, cfg.Trials)
		for _, mech := range ldp.Evaluated() {
			s := exps.Fig2(mech, cfg)
			fmt.Println(exps.RenderCLT(s))
			if *plot {
				fmt.Println(exps.PlotCLT(s))
			}
		}
	})

	run("fig3", func() {
		cfg := exps.ScaledFig3Config(scale)
		fmt.Printf("Fig. 3 — §IV-C case study (r=%g, ε/m=%g, %d trials)\n\n", cfg.R, cfg.EpsPerDim, cfg.Trials)
		for _, s := range []exps.CLTSeries{exps.Fig3Piecewise(cfg), exps.Fig3Square(cfg)} {
			fmt.Println(exps.RenderCLT(s))
			if *plot {
				fmt.Println(exps.PlotCLT(s))
			}
		}
	})

	run("fig4", func() {
		sets := exps.NewPaperDatasets(scale)
		cfg := exps.ScaledSweepConfig(scale)
		for _, c := range []struct {
			title string
			ds    *dataset.Memoized
			mech  ldp.Mechanism
			eps   []float64
		}{
			{"Gaussian (d=100) / Laplace", sets.Gaussian, ldp.Laplace{}, exps.LaplacePMEps},
			{"Gaussian (d=100) / Piecewise", sets.Gaussian, ldp.Piecewise{}, exps.LaplacePMEps},
			{"Gaussian (d=100) / Square", sets.Gaussian, ldp.SquareWave{}, exps.SquareEps},
			{"Poisson (d=300) / Laplace", sets.Poisson, ldp.Laplace{}, exps.LaplacePMEps},
			{"Poisson (d=300) / Piecewise", sets.Poisson, ldp.Piecewise{}, exps.LaplacePMEps},
			{"Poisson (d=300) / Square", sets.Poisson, ldp.SquareWave{}, exps.SquareEps},
			{"Uniform (d=500) / Laplace", sets.Uniform, ldp.Laplace{}, exps.LaplacePMEps},
			{"Uniform (d=500) / Piecewise", sets.Uniform, ldp.Piecewise{}, exps.LaplacePMEps},
			{"Uniform (d=500) / Square", sets.Uniform, ldp.SquareWave{}, exps.SquareEps},
			{"COV-19 (d=750) / Laplace", sets.COV19, ldp.Laplace{}, exps.LaplacePMEps},
			{"COV-19 (d=750) / Piecewise", sets.COV19, ldp.Piecewise{}, exps.LaplacePMEps},
			{"COV-19 (d=750) / Square", sets.COV19, ldp.SquareWave{}, exps.SquareEps},
		} {
			pts := exps.MSEvsEps(c.ds, c.mech, c.eps, cfg)
			fmt.Println(exps.RenderMSE("Fig. 4 — "+c.title, false, pts))
			if *plot {
				fmt.Println(exps.PlotMSE("Fig. 4 — "+c.title, false, pts))
			}
		}
	})

	run("fig5", func() {
		base := exps.NewPaperDatasets(scale).COV19
		cfg := exps.ScaledSweepConfig(scale)
		dims := []int{50, 100, 200, 400, 800, 1600}
		for _, mech := range []ldp.Mechanism{ldp.Laplace{}, ldp.Piecewise{}} {
			pts := exps.MSEvsDims(base, dims, mech, 0.8, cfg)
			fmt.Println(exps.RenderMSE("Fig. 5 — COV-19, ε=0.8, "+mech.Name(), true, pts))
			if *plot {
				fmt.Println(exps.PlotMSE("Fig. 5 — COV-19, ε=0.8, "+mech.Name(), true, pts))
			}
		}
	})

	run("ablations", func() {
		ds := exps.NewPaperDatasets(scale).Gaussian
		cfg := exps.ScaledSweepConfig(scale)
		fmt.Println(exps.RenderAblation("Ablation — λ* confidence (Laplace, Gaussian, ε=0.4)",
			exps.AblationLambdaConfidence(ds, ldp.Laplace{}, 0.4, []float64{0.9, 0.99, 0.999, 0.9999}, cfg)))
		fmt.Println(exps.RenderAblation("Ablation — guarded vs always-on (SquareWave, Gaussian, ε=100)",
			exps.AblationGuarded(ds, ldp.SquareWave{}, 100, cfg)))
		fmt.Println(exps.RenderAblation("Ablation — L2 weight floor (Laplace, Gaussian, ε=0.4)",
			exps.AblationL2Floor(ds, ldp.Laplace{}, 0.4, []float64{0.01, 0.05, 0.2}, cfg)))
		fmt.Println(exps.RenderAblation("Ablation — reported dims m (Piecewise, Gaussian, ε=0.8)",
			exps.AblationSamplingM(ds, ldp.Piecewise{}, 0.8, []int{1, 10, 25, 50, 100}, cfg)))
	})

	run("families", func() {
		if err := runFamilies(ctx, scale); err != nil {
			fmt.Fprintf(os.Stderr, "hdrbench: families: %v\n", err)
			os.Exit(1)
		}
	})

	switch *exp {
	case "table2", "fig2", "fig3", "fig4", "fig5", "ablations", "families", "all":
	default:
		fmt.Fprintf(os.Stderr, "hdrbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// runFamilies compares the three estimator families of the unified
// Session API at equal total budget: the §III-B sampling protocol, Duchi
// et al.'s whole-tuple mechanism, and the §V-C frequency reducer.
func runFamilies(ctx context.Context, scale exps.Scale) error {
	users := 100_000 / max(scale.UsersDiv, 1)
	const d, eps = 16, 1.0
	ds := hdr4me.Memoize(hdr4me.NewGaussianDataset(users, d, 2024))
	truth := ds.TrueMean()

	fmt.Printf("Estimator families — n=%d, d=%d, ε=%g (unified Session API)\n\n", users, d, eps)
	fmt.Printf("%-24s %14s %14s\n", "family", "naive MSE", "enhanced MSE")

	sampling, err := hdr4me.New(
		hdr4me.WithMechanism(hdr4me.Duchi()),
		hdr4me.WithBudget(eps),
		hdr4me.WithDims(d, 1),
		hdr4me.WithEnhance(hdr4me.DefaultEnhanceConfig(hdr4me.RegL1)),
		hdr4me.WithSeed(1),
	)
	if err != nil {
		return err
	}
	res, err := sampling.Run(ctx, ds)
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %14.6g %14.6g\n", "sampling (m=1, duchi)",
		hdr4me.MSE(res.Naive, truth), hdr4me.MSE(res.Enhanced, truth))

	whole, err := hdr4me.New(hdr4me.WithWholeTuple(), hdr4me.WithBudget(eps), hdr4me.WithDims(d, 0), hdr4me.WithSeed(1))
	if err != nil {
		return err
	}
	if res, err = whole.Run(ctx, ds); err != nil {
		return err
	}
	fmt.Printf("%-24s %14.6g %14s\n", "whole-tuple (duchi-md)", hdr4me.MSE(res.Naive, truth), "—")

	cards := make([]int, 8)
	for j := range cards {
		cards[j] = 4
	}
	cds := hdr4me.NewZipfCatDataset(users, cards, 1.2, 2025)
	// Guarded: at this budget the Lemma 4 threshold may not be met, and
	// the Theorem 3 pre-flight check then keeps the naive estimate.
	guarded := hdr4me.DefaultEnhanceConfig(hdr4me.RegL1)
	guarded.Guarded = true
	freqSess, err := hdr4me.New(
		hdr4me.WithMechanism(hdr4me.Laplace()),
		hdr4me.WithBudget(eps),
		hdr4me.WithCards(cards),
		hdr4me.WithDims(len(cards), 2),
		hdr4me.WithEnhance(guarded),
		hdr4me.WithSeed(1),
	)
	if err != nil {
		return err
	}
	if res, err = freqSess.Run(ctx, cds); err != nil {
		return err
	}
	ftruth := hdr4me.TrueFreqs(cds)
	flatTruth := make([]float64, 0, len(res.Naive))
	for _, row := range ftruth {
		flatTruth = append(flatTruth, row...)
	}
	fmt.Printf("%-24s %14.6g %14.6g\n\n", "frequency (8×4 cats)",
		hdr4me.MSE(res.Naive, flatTruth), hdr4me.MSE(res.Enhanced, flatTruth))
	return nil
}
