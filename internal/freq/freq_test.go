package freq

import (
	"context"
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/recal"
)

// simulate runs one histogram-encoding collection round of ds through
// est.Round: a fresh collector for p, one shard per worker.
func simulate(p Protocol, ds CatDataset, rng *mathx.RNG, workers int) (*Aggregator, error) {
	build := func() (*Flat, error) { return NewFlat(p, recal.Config{}) }
	into, err := build()
	if err != nil {
		return nil, err
	}
	shard := func() (est.Estimator, error) { return build() }
	if err := est.Round(context.Background(), into, ds.NumUsers(), workers, rng, shard, est.CatRows(ds)); err != nil {
		return nil, err
	}
	return into.Aggregator, nil
}

func freqMSE(est, truth [][]float64) float64 {
	var sum float64
	var n int
	for j := range truth {
		for k := range truth[j] {
			d := est[j][k] - truth[j][k]
			sum += d * d
			n++
		}
	}
	return sum / float64(n)
}

func TestProtocolValidation(t *testing.T) {
	ok := Protocol{Mech: ldp.Laplace{}, Eps: 1, Cards: []int{3, 4}, M: 1}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Protocol{
		{Mech: nil, Eps: 1, Cards: []int{3}, M: 1},
		{Mech: ldp.Laplace{}, Eps: 0, Cards: []int{3}, M: 1},
		{Mech: ldp.Laplace{}, Eps: 1, Cards: nil, M: 1},
		{Mech: ldp.Laplace{}, Eps: 1, Cards: []int{1}, M: 1},
		{Mech: ldp.Laplace{}, Eps: 1, Cards: []int{3}, M: 2},
		{Mech: ldp.Laplace{}, Eps: 1, Cards: []int{3}, M: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad protocol %d passed", i)
		}
	}
	if e := ok.EpsPerEntry(); e != 0.5 {
		t.Errorf("EpsPerEntry = %v, want ε/(2m) = 0.5", e)
	}
}

func TestTrueFreqsSumToOne(t *testing.T) {
	ds := NewZipfCat(5000, []int{5, 8}, 1.0, 1)
	freqs := TrueFreqs(ds)
	for j := range freqs {
		var sum float64
		for _, f := range freqs[j] {
			sum += f
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("dim %d freqs sum to %v", j, sum)
		}
	}
	// Zipf: category ranked first by the permutation must dominate.
	maxF, minF := 0.0, 1.0
	for _, f := range freqs[0] {
		maxF = math.Max(maxF, f)
		minF = math.Min(minF, f)
	}
	if maxF < 2*minF {
		t.Errorf("zipf skew too flat: max %v min %v", maxF, minF)
	}
}

func TestUniformCatFlat(t *testing.T) {
	ds := NewUniformCat(20000, []int{4}, 2)
	freqs := TrueFreqs(ds)
	for _, f := range freqs[0] {
		if math.Abs(f-0.25) > 0.02 {
			t.Errorf("uniform freq %v, want 0.25", f)
		}
	}
}

func TestValueDeterminism(t *testing.T) {
	ds := NewZipfCat(100, []int{6, 3}, 1.2, 3)
	for i := 0; i < 20; i++ {
		for j := 0; j < 2; j++ {
			if ds.Value(i, j) != ds.Value(i, j) {
				t.Fatal("Value not deterministic")
			}
			if v := ds.Value(i, j); v < 0 || v >= ds.Card[j] {
				t.Fatalf("value %d out of range", v)
			}
		}
	}
}

func TestSimulateRecoversFrequencies(t *testing.T) {
	ds := NewZipfCat(30000, []int{4, 6}, 1.0, 4)
	truth := TrueFreqs(ds)
	for _, mech := range []ldp.Mechanism{ldp.Laplace{}, ldp.Piecewise{}} {
		p := Protocol{Mech: mech, Eps: 8, Cards: ds.Cards(), M: 2}
		agg, err := simulate(p, ds, mathx.NewRNG(5), 4)
		if err != nil {
			t.Fatal(err)
		}
		est := ProjectSimplex(agg.Estimate())
		if mse := freqMSE(est, truth); mse > 5e-3 {
			t.Errorf("%s: freq MSE = %v, want < 5e-3", mech.Name(), mse)
		}
	}
}

func TestSimulateCountsAndMismatch(t *testing.T) {
	ds := NewUniformCat(4000, []int{3, 3, 3, 3}, 6)
	p := Protocol{Mech: ldp.Laplace{}, Eps: 1, Cards: ds.Cards(), M: 2}
	agg, err := simulate(p, ds, mathx.NewRNG(7), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := 4000.0 * 2 / 4
	for j, c := range agg.Counts() {
		if math.Abs(float64(c)-want)/want > 0.08 {
			t.Errorf("dim %d got %d reports, want ≈%v", j, c, want)
		}
	}
	// A protocol narrower than the data must error: category 2 of the
	// last dimension is out of its range.
	p2 := Protocol{Mech: ldp.Laplace{}, Eps: 1, Cards: []int{3, 3, 3, 2}, M: 2}
	if _, err := simulate(p2, ds, mathx.NewRNG(7), 4); err == nil {
		t.Error("cardinality mismatch must fail")
	}
	p3 := Protocol{Mech: ldp.Laplace{}, Eps: 1, Cards: []int{3, 3}, M: 2}
	if _, err := simulate(p3, ds, mathx.NewRNG(7), 4); err == nil {
		t.Error("dimension-count mismatch must fail")
	}
}

func TestEnhancedBeatsNaiveInTightBudget(t *testing.T) {
	// §V-C regime: many dimensions, small ε → per-entry noise is huge and
	// L1 re-calibration should cut the MSE substantially.
	if testing.Short() {
		t.Skip("end-to-end enhancement check skipped in -short")
	}
	cards := make([]int, 30)
	for j := range cards {
		cards[j] = 8
	}
	ds := NewZipfCat(30000, cards, 1.0, 8)
	truth := TrueFreqs(ds)
	p := Protocol{Mech: ldp.Laplace{}, Eps: 0.5, Cards: ds.Cards(), M: len(cards)}
	agg, err := simulate(p, ds, mathx.NewRNG(9), 4)
	if err != nil {
		t.Fatal(err)
	}
	naive, enhanced := agg.EstimateEnhanced(recal.DefaultConfig(recal.RegL1))
	nm := freqMSE(ProjectSimplex(naive), truth)
	em := freqMSE(ProjectSimplex(enhanced), truth)
	if em >= nm {
		t.Fatalf("L1 enhancement did not help: naive %v, enhanced %v", nm, em)
	}
	if nm/em < 2 {
		t.Logf("improvement only %.2fx (naive %v, enhanced %v)", nm/em, nm, em)
	}
}

func TestProjectSimplex(t *testing.T) {
	freqs := [][]float64{{-0.5, 0.5, 1.5}, {0, 0, 0}}
	out := ProjectSimplex(freqs)
	if out[0][0] != 0 || math.Abs(out[0][1]-1.0/3) > 1e-12 || math.Abs(out[0][2]-2.0/3) > 1e-12 {
		t.Errorf("projected = %v", out[0])
	}
	// All-zero row falls back to uniform.
	for _, f := range out[1] {
		if math.Abs(f-1.0/3) > 1e-12 {
			t.Errorf("zero row projection = %v", out[1])
		}
	}
}

func TestEstimateEnhancedEmptyDim(t *testing.T) {
	// No reports at all: estimates are 0.5 (released frame 0) and the
	// enhanced copy must not NaN.
	p := Protocol{Mech: ldp.Laplace{}, Eps: 1, Cards: []int{3}, M: 1}
	agg := NewAggregator(p)
	naive, enhanced := agg.EstimateEnhanced(recal.DefaultConfig(recal.RegL1))
	for k := range naive[0] {
		if math.IsNaN(naive[0][k]) || math.IsNaN(enhanced[0][k]) {
			t.Fatal("NaN in empty-dimension estimates")
		}
	}
}
