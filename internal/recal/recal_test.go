package recal

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/hdr4me/hdr4me/internal/analysis"
)

// The per-call closed-form solvers and Lemma 4/5 weights: the references
// Enhance's one pass must match bit for bit.

// SoftThreshold applies the Eq. 34 one-off L1 solver per dimension:
//
//	θ*ⱼ = θ̂ⱼ − λⱼ (θ̂ⱼ > λⱼ), 0 (|θ̂ⱼ| ≤ λⱼ), θ̂ⱼ + λⱼ (θ̂ⱼ < −λⱼ).
//
// λⱼ = +Inf zeroes the coordinate. A new slice is returned.
func SoftThreshold(est, lambda []float64) []float64 {
	checkLens(len(est), len(lambda))
	out := make([]float64, len(est))
	for j, v := range est {
		out[j] = softThreshold(v, lambda[j])
	}
	return out
}

// Shrink applies the Eq. 42 one-off L2 solver: θ*ⱼ = θ̂ⱼ/(2λⱼ + 1).
// λⱼ = +Inf zeroes the coordinate. A new slice is returned.
func Shrink(est, lambda []float64) []float64 {
	checkLens(len(est), len(lambda))
	out := make([]float64, len(est))
	for j, v := range est {
		out[j] = shrink(v, lambda[j])
	}
	return out
}

func checkLens(a, b int) {
	if a != b {
		panic(fmt.Sprintf("recal: estimate has %d dims but lambda has %d", a, b))
	}
}

// L1Lambda returns the Lemma 4 weight λ*ⱼ = sup|θ̂ⱼ − θ̄ⱼ|, with the
// supremum realized as the framework Gaussian's symmetric conf-quantile
// |δⱼ| + σⱼ·Φ⁻¹((1+conf)/2) (see analysis.Deviation.SupAbs).
func L1Lambda(dev analysis.Deviation, conf float64) float64 {
	return dev.SupAbs(conf)
}

// L2LambdaPaper returns the Lemma 5 weight λ*ⱼ = sup(θ̂ⱼ−θ̄ⱼ)/(2θ̄ⱼ) with
// the paper's substitution of θ̄ⱼ by the framework mean δⱼ. For unbiased
// mechanisms (δⱼ = 0) the weight diverges and Shrink sends the coordinate to
// zero — exactly the saturation the paper reports on Figs. 4(g,h,j,k)/5.
func L2LambdaPaper(dev analysis.Deviation, conf float64) float64 {
	return l2Paper(dev, dev.SupAbs(conf))
}

// L2LambdaFloored is the ablation variant: the reference mean is floored at
// floor > 0 so the weight stays finite even for unbiased mechanisms.
func L2LambdaFloored(dev analysis.Deviation, conf, floor float64) float64 {
	return l2Floored(dev, dev.SupAbs(conf), floor)
}

func TestSoftThresholdCases(t *testing.T) {
	est := []float64{3, -3, 0.5, -0.5, 0}
	lam := []float64{1, 1, 1, 1, 1}
	got := SoftThreshold(est, lam)
	want := []float64{2, -2, 0, 0, 0}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSoftThresholdInfinityZeroes(t *testing.T) {
	got := SoftThreshold([]float64{5, -7}, []float64{math.Inf(1), math.Inf(1)})
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestShrinkCases(t *testing.T) {
	got := Shrink([]float64{6, -6, 1}, []float64{1, 2.5, math.Inf(1)})
	want := []float64{2, -1, 0}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSolversDoNotMutateInput(t *testing.T) {
	est := []float64{1, 2}
	SoftThreshold(est, []float64{0.5, 0.5})
	Shrink(est, []float64{0.5, 0.5})
	if est[0] != 1 || est[1] != 2 {
		t.Fatal("input mutated")
	}
}

func TestSolverLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SoftThreshold([]float64{1}, []float64{1, 2})
}

func TestSoftThresholdProperties(t *testing.T) {
	// Soft-thresholding is a contraction toward 0: |θ*| ≤ |θ̂| and sign is
	// preserved (or zeroed).
	f := func(v, lRaw float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		l := math.Abs(math.Mod(lRaw, 100))
		out := SoftThreshold([]float64{v}, []float64{l})[0]
		if math.Abs(out) > math.Abs(v) {
			return false
		}
		return out == 0 || (out > 0) == (v > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkProperties(t *testing.T) {
	// Shrinkage preserves sign and contracts magnitude for λ > 0.
	f := func(v, lRaw float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		l := math.Abs(math.Mod(lRaw, 100))
		out := Shrink([]float64{v}, []float64{l})[0]
		if math.Abs(out) > math.Abs(v) {
			return false
		}
		return out == 0 || (out > 0) == (v > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLambdaSelection(t *testing.T) {
	dev := analysis.Deviation{Delta: 0, Sigma2: 4}
	// L1: z_{0.9995}·2 ≈ 6.58.
	if l := L1Lambda(dev, 0.999); math.Abs(l-2*3.2905) > 0.01 {
		t.Errorf("L1Lambda = %v", l)
	}
	// Paper L2 with δ=0 diverges.
	if !math.IsInf(L2LambdaPaper(dev, 0.999), 1) {
		t.Error("L2LambdaPaper must diverge for unbiased deviation")
	}
	biased := analysis.Deviation{Delta: -0.5, Sigma2: 0.01}
	l2 := L2LambdaPaper(biased, 0.999)
	want := biased.SupAbs(0.999) / 1.0
	if math.Abs(l2-want) > 1e-12 {
		t.Errorf("L2LambdaPaper = %v, want %v", l2, want)
	}
	// Floored variant stays finite.
	fl := L2LambdaFloored(dev, 0.999, 0.05)
	if math.IsInf(fl, 1) || fl <= 0 {
		t.Errorf("L2LambdaFloored = %v", fl)
	}
}

func TestEnhanceL1ImprovesInHighNoiseRegime(t *testing.T) {
	// Lemma 4's setting: deviations far above 1, truth inside [−1,1]. The
	// re-calibrated estimate must be strictly closer in every dimension.
	dev := analysis.Deviation{Delta: 0, Sigma2: 25} // σ = 5
	truth := []float64{0.2, -0.7, 0.9, 0}
	est := []float64{14, -12, 17, 9} // |dev| >> 1
	out := Enhance(est, []analysis.Deviation{dev}, DefaultConfig(RegL1))
	for j := range truth {
		if math.Abs(out[j]-truth[j]) >= math.Abs(est[j]-truth[j]) {
			t.Errorf("dim %d: enhanced |%v−%v| not better than naive |%v−%v|",
				j, out[j], truth[j], est[j], truth[j])
		}
	}
}

func TestEnhanceRegNoneCopies(t *testing.T) {
	est := []float64{1, 2}
	out := Enhance(est, nil, Config{Reg: RegNone})
	if &out[0] == &est[0] {
		t.Fatal("must return a copy")
	}
	if out[0] != 1 || out[1] != 2 {
		t.Fatalf("got %v", out)
	}
}

func TestEnhanceGuardedSkipsLowNoise(t *testing.T) {
	// Deviation well below the Lemma 4 threshold → guarded mode must leave
	// the estimate untouched.
	dev := analysis.Deviation{Delta: 0, Sigma2: 1e-6}
	est := []float64{0.5, -0.5}
	cfg := Config{Reg: RegL1, Conf: 0.999, Guarded: true}
	out := Enhance(est, []analysis.Deviation{dev}, cfg)
	for j := range est {
		if out[j] != est[j] {
			t.Fatalf("guarded enhance changed a low-noise estimate: %v", out)
		}
	}
	// Unguarded L1 with the same deviation shifts the estimate.
	out2 := Enhance(est, []analysis.Deviation{dev}, Config{Reg: RegL1, Conf: 0.999})
	if out2[0] == est[0] {
		t.Fatal("unguarded enhance should apply the (small) threshold")
	}
}

func TestEnhancePerDimensionDeviations(t *testing.T) {
	devs := []analysis.Deviation{
		{Delta: 0, Sigma2: 100}, // noisy dim: heavy threshold
		{Delta: 0, Sigma2: 1e-8},
	}
	est := []float64{5, 0.5}
	out := Enhance(est, devs, DefaultConfig(RegL1))
	if out[0] != 0 {
		t.Errorf("noisy dim should be zeroed (λ≈33): got %v", out[0])
	}
	if math.Abs(out[1]-0.5) > 1e-3 {
		t.Errorf("quiet dim should be nearly untouched: got %v", out[1])
	}
}

func TestEnhanceDeviationCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Enhance([]float64{1, 2, 3}, make([]analysis.Deviation, 2), DefaultConfig(RegL1))
}

func TestEnhanceL2PaperZeroesUnbiased(t *testing.T) {
	dev := analysis.Deviation{Delta: 0, Sigma2: 9}
	est := []float64{3, -2}
	out := Enhance(est, []analysis.Deviation{dev}, DefaultConfig(RegL2))
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("paper L2 with δ=0 must zero the estimate, got %v", out)
	}
	// Floored config keeps a finite shrink.
	cfg := Config{Reg: RegL2, Conf: 0.999, L2Floor: 0.1}
	out2 := Enhance(est, []analysis.Deviation{dev}, cfg)
	if out2[0] == 0 || math.Abs(out2[0]) >= 3 {
		t.Fatalf("floored L2 should shrink without zeroing: %v", out2)
	}
}

func TestConfigDefaults(t *testing.T) {
	if DefaultConfig(RegL1).Reg != RegL1 {
		t.Fatal("wrong reg")
	}
	c := Config{Reg: RegL1, Conf: 7} // invalid conf falls back
	if c.conf() != 0.999 {
		t.Fatalf("conf fallback = %v", c.conf())
	}
	if (Config{Reg: RegL1}).threshold() != 1 || (Config{Reg: RegL2}).threshold() != 2 {
		t.Fatal("Lemma 4/5 thresholds wrong")
	}
	for r, want := range map[Reg]string{RegNone: "none", RegL1: "L1", RegL2: "L2", Reg(9): "Reg(9)"} {
		if r.String() != want {
			t.Errorf("String(%d) = %q", int(r), r.String())
		}
	}
}
