package dataset

import (
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

func TestRowDeterminism(t *testing.T) {
	sets := []Dataset{
		NewUniform(50, 20, 1),
		NewGaussian(50, 20, 1),
		NewPoisson(50, 20, 1),
		NewCaseStudyDiscrete(50, 20, 1),
		NewCOV19Like(50, 20, 1),
	}
	for _, ds := range sets {
		a := make([]float64, ds.Dim())
		b := make([]float64, ds.Dim())
		for i := 0; i < 10; i++ {
			ds.Row(i, a)
			ds.Row(i, b)
			for j := range a {
				if a[j] != b[j] {
					t.Errorf("%s: Row(%d) not deterministic at dim %d", ds.Name(), i, j)
				}
			}
		}
	}
}

func TestAllValuesInDomain(t *testing.T) {
	sets := []Dataset{
		NewUniform(200, 30, 2),
		NewGaussian(200, 30, 2),
		NewPoisson(200, 30, 2),
		NewCaseStudyDiscrete(200, 30, 2),
		NewCOV19Like(200, 30, 2),
	}
	for _, ds := range sets {
		row := make([]float64, ds.Dim())
		for i := 0; i < ds.NumUsers(); i++ {
			ds.Row(i, row)
			for j, v := range row {
				if v < -1 || v > 1 || math.IsNaN(v) {
					t.Fatalf("%s: value [%d][%d]=%v outside [-1,1]", ds.Name(), i, j, v)
				}
			}
		}
	}
}

func TestUniformMeanNearZero(t *testing.T) {
	ds := NewUniform(20000, 5, 3)
	mean := TrueMean(ds, 4)
	for j, m := range mean {
		if math.Abs(m) > 0.03 {
			t.Errorf("uniform dim %d mean = %v, want ≈0", j, m)
		}
	}
}

func TestGaussianSparseStructure(t *testing.T) {
	ds := NewGaussian(20000, 40, 4)
	mean := TrueMean(ds, 4)
	hot := int(0.10 * 40)
	for j := 0; j < hot; j++ {
		if math.Abs(mean[j]-0.9) > 0.02 {
			t.Errorf("hot dim %d mean = %v, want ≈0.9", j, mean[j])
		}
	}
	for j := hot; j < 40; j++ {
		if math.Abs(mean[j]) > 0.02 {
			t.Errorf("cold dim %d mean = %v, want ≈0", j, mean[j])
		}
	}
}

func TestPoissonNormalization(t *testing.T) {
	ds := NewPoisson(30000, 10, 5)
	mean := TrueMean(ds, 4)
	for j, m := range mean {
		// E[k/λ − 1] ≈ 0 modulo clamping of the upper tail.
		if math.Abs(m) > 0.06 {
			t.Errorf("poisson dim %d (λ=%v) mean = %v, want ≈0", j, ds.lambdas[j], m)
		}
	}
}

func TestDiscreteCaseStudyMean(t *testing.T) {
	ds := NewCaseStudyDiscrete(50000, 3, 6)
	mean := TrueMean(ds, 4)
	// E[v] = (0.1+...+1.0)/10 = 0.55.
	for j, m := range mean {
		if math.Abs(m-0.55) > 0.01 {
			t.Errorf("dim %d mean = %v, want 0.55", j, m)
		}
	}
}

func TestDiscreteValuesOnlyFromSet(t *testing.T) {
	ds := NewCaseStudyDiscrete(500, 4, 7)
	row := make([]float64, 4)
	valid := map[float64]bool{}
	for _, v := range ds.Values {
		valid[v] = true
	}
	for i := 0; i < 500; i++ {
		ds.Row(i, row)
		for _, v := range row {
			if !valid[v] {
				t.Fatalf("value %v not in case-study set", v)
			}
		}
	}
}

func TestDiscreteBadProbsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on probs not summing to 1")
		}
	}()
	NewDiscrete(10, 2, []float64{0.5, 1}, []float64{0.3, 0.3}, 1)
}

func TestCOV19CrossDimensionCorrelation(t *testing.T) {
	// Latent-factor structure must induce visible cross-dim correlation
	// compared to an independent dataset.
	ds := NewCOV19Like(4000, 6, 8)
	rows := materialize(ds)
	c := avgAbsPairwiseCorr(rows)
	ind := NewUniform(4000, 6, 8)
	ci := avgAbsPairwiseCorr(materialize(ind))
	if c < 0.15 {
		t.Errorf("COV19Like avg |corr| = %v, want ≥ 0.15 (correlated)", c)
	}
	if ci > 0.1 {
		t.Errorf("Uniform avg |corr| = %v, want ≈0", ci)
	}
}

func materialize(ds Dataset) [][]float64 {
	rows := make([][]float64, ds.NumUsers())
	for i := range rows {
		rows[i] = make([]float64, ds.Dim())
		ds.Row(i, rows[i])
	}
	return rows
}

func avgAbsPairwiseCorr(rows [][]float64) float64 {
	d := len(rows[0])
	n := len(rows)
	means := make([]float64, d)
	for _, r := range rows {
		for j, v := range r {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(n)
	}
	var sum float64
	var pairs int
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			var cov, va, vb float64
			for _, r := range rows {
				da, db := r[a]-means[a], r[b]-means[b]
				cov += da * db
				va += da * da
				vb += db * db
			}
			sum += math.Abs(cov / math.Sqrt(va*vb))
			pairs++
		}
	}
	return sum / float64(pairs)
}

func TestTrueMeanMatchesSerial(t *testing.T) {
	ds := NewGaussian(1000, 12, 9)
	par := TrueMean(ds, 7)
	ser := TrueMean(ds, 1)
	for j := range par {
		if math.Abs(par[j]-ser[j]) > 1e-12 {
			t.Fatalf("parallel/serial mismatch at dim %d: %v vs %v", j, par[j], ser[j])
		}
	}
}

func TestMemoizedCaches(t *testing.T) {
	m := Memoize(NewUniform(100, 4, 10))
	a := m.TrueMean()
	b := m.TrueMean()
	if &a[0] != &b[0] {
		t.Fatal("Memoized must return the cached slice")
	}
}

func TestSliceDataset(t *testing.T) {
	base := NewUniform(10, 4, 11)
	narrow := Slice(base, 2)
	wide := Slice(base, 7)
	if narrow.Dim() != 2 || wide.Dim() != 7 {
		t.Fatal("sliced dims wrong")
	}
	full := make([]float64, 4)
	base.Row(3, full)
	got := make([]float64, 7)
	wide.Row(3, got)
	for j := 0; j < 7; j++ {
		if got[j] != full[j%4] {
			t.Fatalf("wide slice dim %d = %v, want %v", j, got[j], full[j%4])
		}
	}
	if wide.NumUsers() != 10 {
		t.Fatal("sliced NumUsers wrong")
	}
}

func TestTrueMeanEmptyDataset(t *testing.T) {
	m := NewUniform(0, 0, 1)
	got := TrueMean(m, 4)
	if len(got) != 0 {
		t.Fatalf("TrueMean of empty = %v", got)
	}
	_ = mathx.Sum(got)
}
