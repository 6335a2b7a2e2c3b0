package highdim

import (
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/dataset"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// biasedUnbounded is a synthetic unbounded mechanism with a known non-zero
// data-independent bias, exercising the §IV-B calibration step that every
// real mechanism in this library happens to skip (their noises are all
// symmetric). The aggregator must subtract δ = E[N].
type biasedUnbounded struct{ shift float64 }

func (biasedUnbounded) Name() string  { return "biasedUnbounded" }
func (biasedUnbounded) Bounded() bool { return false }
func (b biasedUnbounded) Perturb(rng *mathx.RNG, t, eps float64) float64 {
	return t + b.shift + rng.Laplace(2/eps)
}
func (biasedUnbounded) SupportBound(eps float64) float64 { return math.Inf(1) }
func (b biasedUnbounded) Bias(t, eps float64) float64    { return b.shift }
func (biasedUnbounded) Var(t, eps float64) float64 {
	lam := 2 / eps
	return 2 * lam * lam
}
func (biasedUnbounded) ThirdAbsMoment(t, eps float64) float64 {
	lam := 2 / eps
	return 6 * lam * lam * lam
}

func TestCalibrationSubtractsUnboundedBias(t *testing.T) {
	ds := dataset.Memoize(dataset.NewUniform(30000, 4, 17))
	mech := biasedUnbounded{shift: 0.75}
	p, err := NewProtocol(mech, 8, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := simulate(p, ds, mathx.NewRNG(3), 4)
	if err != nil {
		t.Fatal(err)
	}
	est := agg.Estimate()
	truth := ds.TrueMean()
	for j := range est {
		if math.Abs(est[j]-truth[j]) > 0.2 {
			t.Errorf("dim %d: calibrated estimate %v vs truth %v — bias not removed?", j, est[j], truth[j])
		}
	}
}

func TestBoundedMechanismSkipsCalibration(t *testing.T) {
	// For bounded mechanisms the bias is data-dependent and must NOT be
	// subtracted by the aggregator (the framework models the residual δⱼ
	// instead). SquareWave at tiny ε pulls estimates toward the domain
	// center; verify the aggregate keeps that pull.
	ds := dataset.Memoize(dataset.NewCaseStudyDiscrete(30000, 2, 19))
	p, err := NewProtocol(ldp.SquareWave{}, 0.02, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := simulate(p, ds, mathx.NewRNG(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	est := agg.Estimate()
	truth := ds.TrueMean() // ≈ 0.55 per dim
	// Expected released-frame mean: t + Bias(t); average bias over the spec.
	var wantBias float64
	for i := 1; i <= 10; i++ {
		wantBias += 0.1 * (ldp.SquareWave{}).Bias(float64(i)/10, p.EpsPerDim())
	}
	for j := range est {
		got := est[j] - truth[j]
		if math.Abs(got-wantBias) > 0.05 {
			t.Errorf("dim %d: residual bias %v, framework predicts %v", j, got, wantBias)
		}
	}
}
