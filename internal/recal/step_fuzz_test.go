package recal

import (
	"fmt"
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/analysis"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// enhanceIntoMultiPass is EnhanceInto as it stood before Config.Step,
// kept verbatim: the loop that re-tests the configuration on every
// dimension. It is the reference the one-dimension step must match bit
// for bit.
func enhanceIntoMultiPass(out, est []float64, devs []analysis.Deviation, cfg Config) []float64 {
	if len(out) != len(est) {
		panic(fmt.Sprintf("recal: %d outputs for %d dims", len(out), len(est)))
	}
	if cfg.Reg == RegNone {
		copy(out, est)
		return out
	}
	if len(devs) != 1 && len(devs) != len(est) {
		panic(fmt.Sprintf("recal: %d deviations for %d dims", len(devs), len(est)))
	}
	if cfg.Reg != RegL1 && cfg.Reg != RegL2 {
		panic(fmt.Sprintf("recal: unknown regularizer %v", cfg.Reg))
	}
	// conf() lies in (0,1) or is NaN, where SymmetricQuantile(conf, σ) is
	// exactly σ·z: hoisting z keeps every product, and so every bit.
	z := mathx.StdNormQuantile((1 + cfg.conf()) / 2)
	for j, v := range est {
		dev := devs[0]
		if len(devs) > 1 {
			dev = devs[j]
		}
		sup := math.Abs(dev.Delta) + dev.Sigma()*z
		// A guarded dimension under the threshold keeps the identity
		// weight 0, for which both solvers return θ̂ⱼ unchanged.
		var l float64
		if !(cfg.Guarded && sup <= cfg.threshold()) {
			l = cfg.lambdaSup(dev, sup)
		}
		if cfg.Reg == RegL1 {
			out[j] = softThreshold(v, l)
		} else {
			out[j] = shrink(v, l)
		}
	}
	return out
}

// sameBits is bitwise equality, except that any two NaNs match: Go
// leaves the payload and sign of a NaN result to the operand order the
// compiler picks, so two builds of one expression may differ there.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzEnhanceStepParity: Config.Step applied to one dimension returns
// bit for bit what the multi-pass loop returns, and so does the
// EnhanceInto built on it, for every regularizer, confidence (NaN and
// out-of-range included), guard, L2 floor, estimate and deviation.
// Only a NaN result may differ, in its payload.
func FuzzEnhanceStepParity(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	for _, s := range []struct {
		v, delta, sigma2, conf float64
		reg                    uint8
		guarded                bool
		floor                  float64
	}{
		{0.3, 0, 0.01, 0.999, 1, false, 0},            // unbiased L1: the mean family
		{0.3, 0, 0.01, 0.999, 2, false, 0},            // unbiased paper L2: weight +Inf
		{0.3, 0.02, 0.01, 0.999, 2, false, 0},         // biased paper L2
		{-0.4, 0, 0.01, 0.95, 2, false, 0.05},         // floored L2
		{0.01, 0.001, 1e-6, 0.999, 1, true, 0},        // guard holds off
		{5, 0.5, 4, 0.999, 2, true, 0},                // guard lets through
		{0.7, 0, 0, 0.999, 2, false, 0},               // sup = 0 at δ = 0
		{math.Copysign(0, -1), 0, 0, 0.5, 1, true, 0}, // −0 under the identity weight
		{nan, 0.1, 0.2, 0.999, 1, false, 0},           // NaN estimate
		{0.2, nan, 0.2, 0.999, 2, false, 1},           // NaN bias
		{0.2, 0.1, inf, 0.999, 2, false, 0.05},        // infinite variance
		{0.2, 0.1, -1, 0.999, 1, false, 0},            // negative variance: σ = NaN
		{93.2, nan, -16.8, 0.999, 2, false, 1},        // two NaN operands
		{24, -1, 0, 0.5, 1, true, 0},                  // sup exactly at the L1 threshold
		{24, 2, 0, 0.5, 2, true, 0},                   // sup exactly at the L2 threshold
		{0.2, 0.1, 0.3, nan, 1, true, 0},              // NaN confidence
		{0.2, 0.1, 0.3, 1e-300, 2, true, 0},           // confidence at the quantile's edge
		{0.2, 0.1, 0.3, 2, 2, false, nan},             // out-of-range confidence, NaN floor
		{0.2, 0.1, 0.3, -1, 2, false, -1},             // negative floor
		{0.9, 0.1, 0.3, 0.999, 0, true, 0},            // RegNone
	} {
		f.Add(s.v, s.delta, s.sigma2, s.conf, s.reg, s.guarded, s.floor)
	}
	f.Fuzz(func(t *testing.T, v, delta, sigma2, conf float64, reg uint8, guarded bool, floor float64) {
		cfg := Config{Reg: Reg(reg % 3), Conf: conf, Guarded: guarded, L2Floor: floor}
		dev := analysis.Deviation{Delta: delta, Sigma2: sigma2}
		want := enhanceIntoMultiPass(make([]float64, 1), []float64{v}, []analysis.Deviation{dev}, cfg)[0]
		step := cfg.Step()
		if got := step.Apply(v, dev); !sameBits(got, want) {
			t.Fatalf("%+v, v=%v, dev=%+v: Step.Apply %v, multi-pass loop %v", cfg, v, dev, got, want)
		}
		if got := EnhanceInto(make([]float64, 1), []float64{v}, []analysis.Deviation{dev}, cfg)[0]; !sameBits(got, want) {
			t.Fatalf("%+v, v=%v, dev=%+v: EnhanceInto %v, multi-pass loop %v", cfg, v, dev, got, want)
		}
	})
}
