package highdim

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/hdr4me/hdr4me/internal/dataset"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/metrics"
)

// round runs one collection round of ds through est.Round: a fresh
// estimator from build collects, and every worker observes into its own
// shard from build.
func round[E est.Estimator](ds dataset.Dataset, rng *mathx.RNG, workers int, build func() (E, error)) (E, error) {
	into, err := build()
	if err != nil {
		return into, err
	}
	shard := func() (est.Estimator, error) { return build() }
	return into, est.Round(context.Background(), into, ds.NumUsers(), workers, rng, shard, est.ValueRows(ds))
}

// simulate is a uniform-budget collection round for p.
func simulate(p Protocol, ds dataset.Dataset, rng *mathx.RNG, workers int) (*Aggregator, error) {
	return round(ds, rng, workers, func() (*Aggregator, error) { return NewAggregator(p), nil })
}

// simulateAllocated is a collection round for p under alloc.
func simulateAllocated(p Protocol, alloc Allocation, ds dataset.Dataset, rng *mathx.RNG, workers int) (*Aggregator, error) {
	return round(ds, rng, workers, func() (*Aggregator, error) { return NewAllocatedAggregator(p, alloc) })
}

// simulateDuchiMD is a whole-tuple collection round; it returns the
// per-dimension mean release.
func simulateDuchiMD(m DuchiMD, ds dataset.Dataset, rng *mathx.RNG, workers int) ([]float64, error) {
	agg, err := round(ds, rng, workers, func() (*MDAggregator, error) { return NewMDAggregator(m) })
	if err != nil {
		return nil, err
	}
	return agg.Estimate(), nil
}

func mustProtocol(t *testing.T, mech ldp.Mechanism, eps float64, d, m int) Protocol {
	t.Helper()
	p, err := NewProtocol(mech, eps, d, m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProtocolValidation(t *testing.T) {
	cases := []struct {
		mech    ldp.Mechanism
		eps     float64
		d, m    int
		wantErr bool
	}{
		{ldp.Laplace{}, 1, 10, 5, false},
		{nil, 1, 10, 5, true},
		{ldp.Laplace{}, 0, 10, 5, true},
		{ldp.Laplace{}, -1, 10, 5, true},
		{ldp.Laplace{}, math.Inf(1), 10, 5, true},
		{ldp.Laplace{}, 1, 0, 1, true},
		{ldp.Laplace{}, 1, 10, 0, true},
		{ldp.Laplace{}, 1, 10, 11, true},
		{ldp.Laplace{}, 1, 10, 10, false},
	}
	for i, c := range cases {
		_, err := NewProtocol(c.mech, c.eps, c.d, c.m)
		if (err != nil) != c.wantErr {
			t.Errorf("case %d: err=%v, wantErr=%v", i, err, c.wantErr)
		}
	}
}

func TestEpsPerDimAndExpectedReports(t *testing.T) {
	p := mustProtocol(t, ldp.Laplace{}, 2, 100, 50)
	if got := p.EpsPerDim(); got != 0.04 {
		t.Errorf("EpsPerDim = %v, want 0.04", got)
	}
	// E[r] = n·m/d (§III-B).
	if got := p.ExpectedReports(10000); got != 5000 {
		t.Errorf("ExpectedReports = %v, want 5000", got)
	}
}

func TestClientReportShape(t *testing.T) {
	p := mustProtocol(t, ldp.Piecewise{}, 1, 20, 7)
	c := NewClient(p, mathx.NewRNG(1))
	tuple := make([]float64, 20)
	for i := range tuple {
		tuple[i] = 0.5
	}
	rep := c.Report(tuple)
	if len(rep.Dims) != 7 || len(rep.Values) != 7 {
		t.Fatalf("report shape %d/%d, want 7/7", len(rep.Dims), len(rep.Values))
	}
	bound := p.Mech.SupportBound(p.EpsPerDim())
	for i, d := range rep.Dims {
		if int(d) >= 20 {
			t.Fatalf("dim %d out of range", d)
		}
		if i > 0 && rep.Dims[i-1] >= d {
			t.Fatalf("dims not strictly increasing: %v", rep.Dims)
		}
		if math.Abs(rep.Values[i]) > bound {
			t.Fatalf("value %v exceeds support bound %v", rep.Values[i], bound)
		}
	}
}

func TestClientRejectsWrongWidth(t *testing.T) {
	p := mustProtocol(t, ldp.Laplace{}, 1, 5, 2)
	c := NewClient(p, mathx.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong tuple width")
		}
	}()
	c.Report(make([]float64, 4))
}

func TestClientOutOfDomainPanicNamesOnlyTheDimension(t *testing.T) {
	p := mustProtocol(t, ldp.Piecewise{}, 1, 5, 5)
	c := NewClient(p, mathx.NewRNG(1))
	defer func() {
		msg, _ := recover().(string)
		if msg != "highdim: value outside [−1, 1] in dimension 3" {
			t.Fatalf("panic %q, want the dimension-only message", msg)
		}
	}()
	c.Report([]float64{0, 0.5, -1, 1.5, 0})
}

func TestAggregatorRejectsMalformedReports(t *testing.T) {
	p := mustProtocol(t, ldp.Laplace{}, 1, 4, 2)
	a := NewAggregator(p)
	if err := a.Add(Report{Dims: []uint32{0, 1}, Values: []float64{1}}); err == nil {
		t.Error("length mismatch must be rejected")
	}
	if err := a.Add(Report{Dims: []uint32{9}, Values: []float64{1}}); err == nil {
		t.Error("out-of-range dim must be rejected")
	}
	// A rejected report must not pollute the sums.
	counts := a.Counts()
	for _, c := range counts {
		if c != 0 {
			t.Fatalf("rejected reports leaked into counts: %v", counts)
		}
	}
}

func TestAggregatorEstimateZeroForEmptyDims(t *testing.T) {
	p := mustProtocol(t, ldp.Laplace{}, 1, 3, 1)
	a := NewAggregator(p)
	if err := a.Add(Report{Dims: []uint32{1}, Values: []float64{0.4}}); err != nil {
		t.Fatal(err)
	}
	est := a.Estimate()
	if est[0] != 0 || est[2] != 0 {
		t.Errorf("empty dims must estimate 0: %v", est)
	}
	if est[1] != 0.4 {
		t.Errorf("est[1] = %v, want 0.4", est[1])
	}
}

func TestAggregatorConcurrentAdd(t *testing.T) {
	p := mustProtocol(t, ldp.Laplace{}, 1, 8, 2)
	a := NewAggregator(p)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				rep := Report{Dims: []uint32{uint32(g % 8)}, Values: []float64{1}}
				if err := a.Add(rep); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, c := range a.Counts() {
		total += c
	}
	if total != 16*500 {
		t.Fatalf("total count %d, want %d", total, 16*500)
	}
}

func TestSimulateRecoversMeanLaplace(t *testing.T) {
	ds := dataset.Memoize(dataset.NewGaussian(40000, 10, 5))
	p := mustProtocol(t, ldp.Laplace{}, 8, 10, 10)
	agg, err := simulate(p, ds, mathx.NewRNG(3), 4)
	if err != nil {
		t.Fatal(err)
	}
	mse := metrics.MSE(agg.Estimate(), ds.TrueMean())
	// ε/m = 0.8 per dim, Var = 8/0.64 = 12.5, r = n → MSE ≈ 12.5/40000 ≈ 3e-4.
	if mse > 3e-3 {
		t.Fatalf("MSE = %v, want < 3e-3", mse)
	}
}

func TestSimulateRecoversMeanAllMechanisms(t *testing.T) {
	ds := dataset.Memoize(dataset.NewUniform(30000, 6, 6))
	truth := ds.TrueMean()
	for name, mech := range ldp.Registry() {
		p := mustProtocol(t, mech, 6, 6, 6)
		agg, err := simulate(p, ds, mathx.NewRNG(4), 4)
		if err != nil {
			t.Fatal(err)
		}
		est := agg.Estimate()
		mse := metrics.MSE(est, truth)
		// SW is biased; allow a looser bound for it. Others should be tight.
		limit := 0.01
		if name == "squarewave" {
			limit = 0.05
		}
		if mse > limit {
			t.Errorf("%s: MSE = %v, want < %v", name, mse, limit)
		}
	}
}

func TestSimulateSamplingCountsMatchExpectation(t *testing.T) {
	ds := dataset.NewUniform(20000, 10, 7)
	p := mustProtocol(t, ldp.Laplace{}, 1, 10, 3)
	agg, err := simulate(p, ds, mathx.NewRNG(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := p.ExpectedReports(20000) // 6000
	for j, c := range agg.Counts() {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("dim %d received %d reports, want ≈%v", j, c, want)
		}
	}
}

func TestSimulateDeterministicForFixedWorkers(t *testing.T) {
	ds := dataset.NewUniform(2000, 5, 8)
	p := mustProtocol(t, ldp.Piecewise{}, 1, 5, 2)
	a, _ := simulate(p, ds, mathx.NewRNG(9), 3)
	b, _ := simulate(p, ds, mathx.NewRNG(9), 3)
	ea, eb := a.Estimate(), b.Estimate()
	for j := range ea {
		if ea[j] != eb[j] {
			t.Fatalf("same seed+workers gave different estimates at dim %d", j)
		}
	}
}

func TestSimulateDimensionMismatch(t *testing.T) {
	ds := dataset.NewUniform(100, 5, 1)
	p := mustProtocol(t, ldp.Laplace{}, 1, 6, 2)
	if _, err := simulate(p, ds, mathx.NewRNG(1), 2); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestSimulateMatchesClientAggregatorPath(t *testing.T) {
	// A sharded est.Round collection round and the explicit
	// Client→Report→Add path must agree statistically: compare estimates
	// on the same dataset.
	ds := dataset.Memoize(dataset.NewUniform(20000, 4, 11))
	p := mustProtocol(t, ldp.Laplace{}, 4, 4, 2)

	agg1, err := simulate(p, ds, mathx.NewRNG(12), 4)
	if err != nil {
		t.Fatal(err)
	}

	agg2 := NewAggregator(p)
	rng := mathx.NewRNG(13)
	row := make([]float64, 4)
	c := NewClient(p, rng)
	for i := 0; i < ds.NumUsers(); i++ {
		ds.Row(i, row)
		if err := agg2.Add(c.Report(row)); err != nil {
			t.Fatal(err)
		}
	}
	m1 := metrics.MSE(agg1.Estimate(), ds.TrueMean())
	m2 := metrics.MSE(agg2.Estimate(), ds.TrueMean())
	// Both are unbiased estimates with the same variance scale; they should
	// land within an order of magnitude of each other.
	if m1 > 10*m2+1e-3 || m2 > 10*m1+1e-3 {
		t.Fatalf("paths diverge: simulate MSE %v vs client path MSE %v", m1, m2)
	}
}

// TestPerturbSampleRejectsBeforeAnyDraw: a sampled value outside
// [−1, 1] (or NaN) is the report path's one value check — an error
// naming only its dimension, returned before any perturbation draw, so
// the RNG state is untouched — under a uniform and an allocated budget.
func TestPerturbSampleRejectsBeforeAnyDraw(t *testing.T) {
	uniform := []ldp.Perturber{ldp.At(ldp.Piecewise{}, 0.5)}
	allocated := []ldp.Perturber{ldp.At(ldp.Piecewise{}, 0.2), ldp.At(ldp.Laplace{}, 0.3), ldp.At(ldp.Piecewise{}, 0.4)}
	for name, pert := range map[string][]ldp.Perturber{"uniform": uniform, "allocated": allocated} {
		for _, bad := range []float64{1.5, -1.25, math.NaN()} {
			tuple := []float64{0.25, -0.5, bad}
			a, b := mathx.NewRNG(17), mathx.NewRNG(17)
			err := perturbSample(make([]float64, 2), tuple, []uint32{0, 2}, pert, a)
			if err == nil || !strings.Contains(err.Error(), "dimension 2") || strings.Contains(err.Error(), fmt.Sprint(bad)) {
				t.Errorf("%s %v: err %v, want one naming dimension 2 and not the value", name, bad, err)
			}
			if a.Float64() != b.Float64() {
				t.Errorf("%s %v: the rejected report drew randomness", name, bad)
			}
		}
	}
}
