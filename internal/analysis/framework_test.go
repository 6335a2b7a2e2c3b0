package analysis

import (
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/dataset"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

func TestDataSpecValidate(t *testing.T) {
	good := UniformSpec(0.1, 0.5, -0.3)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []DataSpec{
		{},
		{Values: []float64{0.1}, Probs: []float64{0.5, 0.5}},
		{Values: []float64{2}, Probs: []float64{1}},
		{Values: []float64{0.1, 0.2}, Probs: []float64{0.8, 0.1}},
		{Values: []float64{0.1}, Probs: []float64{-1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d passed validation", i)
		}
	}
}

func TestCaseStudySpec(t *testing.T) {
	s := CaseStudySpec()
	if len(s.Values) != 10 || s.Values[0] != 0.1 || s.Values[9] != 1.0 {
		t.Fatalf("spec = %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecFromSamples(t *testing.T) {
	samples := make([]float64, 1000)
	rng := mathx.NewRNG(1)
	for i := range samples {
		samples[i] = rng.Uniform(-1, 1)
	}
	s := SpecFromSamples(samples, 20)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Values) != 20 {
		t.Fatalf("got %d atoms", len(s.Values))
	}
	// Atoms must be ordered and roughly uniform for uniform input.
	for i := 1; i < len(s.Values); i++ {
		if s.Values[i] < s.Values[i-1] {
			t.Fatal("atoms not sorted")
		}
	}
	mean := 0.0
	for i, v := range s.Values {
		mean += v * s.Probs[i]
	}
	if math.Abs(mean) > 0.1 {
		t.Errorf("spec mean %v, want ≈0", mean)
	}
	// k larger than sample count clamps.
	tiny := SpecFromSamples([]float64{0.5, -0.5}, 10)
	if len(tiny.Values) != 2 {
		t.Errorf("clamp failed: %d atoms", len(tiny.Values))
	}
}

func TestDeviationLemma2Laplace(t *testing.T) {
	// Lemma 2: dev ~ N(0, Var(N)/r) for Laplace.
	f := Framework{Mech: ldp.Laplace{}, EpsPerDim: 0.5, R: 2000}
	dev := f.Deviation(nil)
	if dev.Delta != 0 {
		t.Errorf("Laplace δ = %v, want 0", dev.Delta)
	}
	want := ldp.Laplace{}.Var(0, 0.5) / 2000
	if math.Abs(dev.Sigma2-want)/want > 1e-12 {
		t.Errorf("σ² = %v, want %v", dev.Sigma2, want)
	}
}

func TestDeviationLemma3NeedsSpec(t *testing.T) {
	f := Framework{Mech: ldp.Piecewise{}, EpsPerDim: 0.5, R: 100}
	defer func() {
		if recover() == nil {
			t.Fatal("bounded mechanism without spec must panic")
		}
	}()
	f.Deviation(nil)
}

func TestDeviationMatchesEmpiricalDistribution(t *testing.T) {
	// The heart of Fig. 2: the Lemma 2/3 Gaussian must match the empirical
	// distribution of θ̂ⱼ − θ̄ⱼ over repeated collection rounds.
	if testing.Short() {
		t.Skip("empirical CLT check skipped in -short")
	}
	const (
		n      = 4000
		d      = 8
		eps    = 4.0
		trials = 600
	)
	ds := dataset.Memoize(dataset.NewCaseStudyDiscrete(n, d, 33))
	truth := ds.TrueMean()
	spec := CaseStudySpec()

	for _, mech := range []ldp.Mechanism{ldp.Laplace{}, ldp.Piecewise{}} {
		p, err := highdim.NewProtocol(mech, eps, d, d)
		if err != nil {
			t.Fatal(err)
		}
		f := Framework{Mech: mech, EpsPerDim: p.EpsPerDim(), R: p.ExpectedReports(n)}
		var dev Deviation
		if mech.Bounded() {
			dev = f.Deviation(&spec)
		} else {
			dev = f.Deviation(nil)
		}
		var w mathx.Welford
		rng := mathx.NewRNG(77)
		for tr := 0; tr < trials; tr++ {
			agg, err := simulate(p, ds, rng.Child(uint64(tr)), 4)
			if err != nil {
				t.Fatal(err)
			}
			w.Add(agg.Estimate()[0] - truth[0])
		}
		if math.Abs(w.Mean()-dev.Delta) > 5*dev.Sigma()/math.Sqrt(trials) {
			t.Errorf("%s: empirical mean dev %v, framework δ %v (σ=%v)", mech.Name(), w.Mean(), dev.Delta, dev.Sigma())
		}
		if rel := math.Abs(w.Var()-dev.Sigma2) / dev.Sigma2; rel > 0.25 {
			t.Errorf("%s: empirical var %v, framework σ² %v", mech.Name(), w.Var(), dev.Sigma2)
		}
	}
}

func TestWorstCaseDominates(t *testing.T) {
	// The data-free envelope must be at least as pessimistic as any spec.
	f := Framework{Mech: ldp.Piecewise{}, EpsPerDim: 0.2, R: 500}
	wc := f.WorstCaseDeviation()
	for _, spec := range []DataSpec{CaseStudySpec(), UniformSpec(0.0), UniformSpec(-1, 1)} {
		dev := f.Deviation(&spec)
		if dev.Sigma2 > wc.Sigma2*(1+1e-9) {
			t.Errorf("spec σ² %v exceeds worst case %v", dev.Sigma2, wc.Sigma2)
		}
		if math.Abs(dev.Delta) > wc.Delta+1e-12 {
			t.Errorf("spec |δ| %v exceeds worst case %v", dev.Delta, wc.Delta)
		}
	}
}

func TestDeviationProbWithinAndSup(t *testing.T) {
	d := Deviation{Delta: 0, Sigma2: 1}
	if p := d.ProbWithin(1.959963984540054); math.Abs(p-0.95) > 1e-9 {
		t.Errorf("ProbWithin(1.96) = %v, want 0.95", p)
	}
	if s := d.SupAbs(0.95); math.Abs(s-1.959963984540054) > 1e-9 {
		t.Errorf("SupAbs = %v", s)
	}
	biased := Deviation{Delta: -0.5, Sigma2: 0.01}
	if s := biased.SupAbs(0.95); math.Abs(s-(0.5+0.1*1.959963984540054)) > 1e-9 {
		t.Errorf("biased SupAbs = %v", s)
	}
	if p := d.PDF(0); math.Abs(p-mathx.StdNormPDF(0)) > 1e-15 {
		t.Errorf("PDF(0) = %v", p)
	}
}

// TestMomentsAreCountFree: the Lemma 2/3 moments ignore the report count,
// and Deviation at any r is exactly Moments.At(r) — δ unchanged, σ² the
// per-report variance divided by r.
func TestMomentsAreCountFree(t *testing.T) {
	spec := UniformSpec(-1, -0.2, 0.4, 1)
	for _, mech := range []ldp.Mechanism{ldp.Laplace{}, ldp.Piecewise{}, ldp.SquareWave{}} {
		ref := Framework{Mech: mech, EpsPerDim: 0.7, R: 1}.Moments(&spec)
		for _, r := range []float64{1, 3, 250, 1e6} {
			fw := Framework{Mech: mech, EpsPerDim: 0.7, R: r}
			if got := fw.Moments(&spec); got != ref {
				t.Errorf("%s: moments at r=%v are %+v, at r=1 %+v", mech.Name(), r, got, ref)
			}
			dev, want := fw.Deviation(&spec), ref.At(r)
			if math.Float64bits(dev.Delta) != math.Float64bits(want.Delta) ||
				math.Float64bits(dev.Sigma2) != math.Float64bits(want.Sigma2) {
				t.Errorf("%s r=%v: Deviation %+v, Moments.At %+v", mech.Name(), r, dev, want)
			}
			if dev.Sigma2 != ref.Var/r {
				t.Errorf("%s r=%v: σ² = %v, want Var/r = %v", mech.Name(), r, dev.Sigma2, ref.Var/r)
			}
		}
	}
}
