// Package recal implements HDR4ME (paper §V): a one-off, non-iterative
// re-calibration of the naive high-dimensional aggregation. The collector
// solves θ* = argmin_θ { L(θ) + R(λ*∘θ) } with L(θ) = (1/2r)Σ‖t*ᵢ − θ‖²,
// whose gradient fixed point is the naive estimate θ̂, so the solution is a
// proximal step from θ̂:
//
//	L1 (Eq. 34): per-dimension soft-thresholding by λ*ⱼ,
//	L2 (Eq. 42): per-dimension shrinkage θ̂ⱼ/(2λ*ⱼ + 1).
//
// Regularization weights come from the §IV framework (Lemmas 4 and 5). The
// proximal-gradient-descent route the paper derives the solvers from lives
// in the package's tests, as the verifier of the closed forms.
//
// Both closed forms act on each dimension alone, so HDR4ME is one O(d)
// pass. Config.Step resolves a configuration once — the quantile, the
// regularizer, the guard threshold and the L2 floor — and Step.Apply
// re-calibrates one dimension from its naive estimate and deviation.
// Enhance and EnhanceInto loop over it; the collectors call it inside the
// loop that calibrates their fold, so no per-dimension deviations are
// stored.
package recal

import (
	"fmt"
	"math"

	"github.com/hdr4me/hdr4me/internal/analysis"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Reg selects the regularization flavor.
type Reg int

const (
	// RegNone disables re-calibration (the paper's baseline aggregation).
	RegNone Reg = iota
	// RegL1 applies L1 (soft-thresholding; dimensionality + scale reduction).
	RegL1
	// RegL2 applies squared-L2 (pure scale reduction).
	RegL2
)

// String implements fmt.Stringer.
func (r Reg) String() string {
	switch r {
	case RegNone:
		return "none"
	case RegL1:
		return "L1"
	case RegL2:
		return "L2"
	default:
		return fmt.Sprintf("Reg(%d)", int(r))
	}
}

func softThreshold(v, l float64) float64 {
	switch {
	case v > l:
		return v - l
	case v < -l:
		return v + l
	default:
		return 0
	}
}

func shrink(v, l float64) float64 {
	if math.IsInf(l, 1) {
		return 0
	}
	return v / (2*l + 1)
}

// l2Paper is the Lemma 5 weight sup(θ̂ⱼ−θ̄ⱼ)/(2θ̄ⱼ) with the paper's
// substitution of θ̄ⱼ by the framework mean δⱼ, given sup =
// dev.SupAbs(conf). For unbiased mechanisms (δⱼ = 0) the weight diverges
// and the L2 solver sends the coordinate to zero — exactly the saturation
// the paper reports on Figs. 4(g,h,j,k)/5.
func l2Paper(dev analysis.Deviation, sup float64) float64 {
	if dev.Delta == 0 {
		return math.Inf(1)
	}
	return sup / (2 * math.Abs(dev.Delta))
}

// l2Floored is the ablation variant of l2Paper: the reference mean is
// floored at floor > 0 so the weight stays finite even for unbiased
// mechanisms.
func l2Floored(dev analysis.Deviation, sup, floor float64) float64 {
	ref := math.Abs(dev.Delta)
	if ref < floor {
		ref = floor
	}
	return sup / (2 * ref)
}

// Config parameterizes one HDR4ME application.
type Config struct {
	// Reg selects L1 or L2 (RegNone returns the estimate unchanged).
	Reg Reg
	// Conf is the confidence of the sup-deviation quantile (default 0.999).
	Conf float64
	// Guarded applies the re-calibration only when the framework predicts
	// sup|dev| above the Lemma 4/5 threshold (1 for L1, 2 for L2) — the
	// paper's "if the threshold ... is not reached, our re-calibration can
	// be harmful" turned into a switch.
	Guarded bool
	// L2Floor, if positive, uses L2LambdaFloored instead of the
	// paper-faithful L2LambdaPaper.
	L2Floor float64
}

// DefaultConfig returns the paper configuration for the given regularizer:
// conf 0.999, unguarded, paper-faithful L2 weights.
func DefaultConfig(reg Reg) Config { return Config{Reg: reg, Conf: 0.999} }

func (c Config) conf() float64 {
	if c.Conf <= 0 || c.Conf >= 1 {
		return 0.999
	}
	return c.Conf
}

// threshold returns the Lemma 4/5 deviation threshold for the regularizer.
func (c Config) threshold() float64 {
	if c.Reg == RegL2 {
		return 2
	}
	return 1
}

// Lambda computes the per-dimension regularization weight for deviation dev.
func (c Config) Lambda(dev analysis.Deviation) float64 {
	if c.Reg != RegL1 && c.Reg != RegL2 {
		return 0
	}
	return c.lambdaSup(dev, dev.SupAbs(c.conf()))
}

// lambdaSup is Lambda for an L1 or L2 configuration given the deviation's
// sup = dev.SupAbs(c.conf()): L1Lambda, L2LambdaFloored or L2LambdaPaper.
// Step.Apply forms sup once per dimension and shares it between the guard
// and the weight.
func (c Config) lambdaSup(dev analysis.Deviation, sup float64) float64 {
	switch {
	case c.Reg == RegL1:
		return sup
	case c.L2Floor > 0:
		return l2Floored(dev, sup, c.L2Floor)
	default:
		return l2Paper(dev, sup)
	}
}

// Step is HDR4ME for one dimension under a fixed Config. Config.Step
// resolves everything that does not depend on the dimension once — the
// quantile z = Φ⁻¹((1+conf)/2), the regularizer, the guard threshold and
// the L2 floor — so a collector re-calibrates inside the loop that
// calibrates its fold, one dimension at a time.
type Step struct {
	reg Reg
	z   float64
	// guard is the Lemma 4/5 threshold at or below which a guarded
	// dimension keeps the identity weight; NaN when unguarded, since no
	// sup compares ≤ NaN.
	guard float64
	// floor is the L2 reference floor; 0 selects the paper's weights.
	floor float64
}

// Step returns the per-dimension step of c. It panics on an unknown
// regularizer; under RegNone the step is the identity.
func (c Config) Step() Step {
	s := Step{reg: c.Reg, guard: math.NaN(), floor: c.L2Floor}
	switch c.Reg {
	case RegNone:
		return s
	case RegL1, RegL2:
	default:
		panic(fmt.Sprintf("recal: unknown regularizer %v", c.Reg))
	}
	// conf() lies in (0,1) or is NaN, where SymmetricQuantile(conf, σ) is
	// exactly σ·z: hoisting z keeps every product, and so every bit.
	s.z = mathx.StdNormQuantile((1 + c.conf()) / 2)
	if c.Guarded {
		s.guard = c.threshold()
	}
	return s
}

// Apply re-calibrates one dimension's naive estimate v given its
// framework deviation dev: the sup-deviation |δ| + σ·z, the guard, the
// weight Config.Lambda selects, then the Eq. 34 soft-threshold or the
// Eq. 42 shrinkage — bit for bit what Enhance returns for that dimension.
func (s *Step) Apply(v float64, dev analysis.Deviation) float64 {
	if s.reg == RegNone {
		return v
	}
	sup := math.Abs(dev.Delta) + dev.Sigma()*s.z
	// A guarded dimension under the threshold keeps the identity weight
	// 0, for which both solvers return v unchanged. The weight is spelled
	// out rather than taken from Config.lambdaSup so that Apply calls
	// nothing: an L2 pass through that call ran about 40% slower on a
	// 2-core x86-64 host.
	var l float64
	switch {
	case sup <= s.guard:
	case s.reg == RegL1:
		l = sup
	case s.floor > 0:
		l = l2Floored(dev, sup, s.floor)
	default:
		l = l2Paper(dev, sup)
	}
	if s.reg == RegL1 {
		return softThreshold(v, l)
	}
	return shrink(v, l)
}

// Enhance re-calibrates the naive estimate est given per-dimension framework
// deviations devs (len(devs) must be 1 — shared by all dimensions — or
// len(est)). It returns a new slice; est is never modified.
//
// It is one pass of Config.Step over the dimensions: bit for bit what the
// Eq. 34 soft-threshold or the Eq. 42 shrinkage return for the
// per-dimension weights Config.Lambda selects.
func Enhance(est []float64, devs []analysis.Deviation, cfg Config) []float64 {
	return EnhanceInto(make([]float64, len(est)), est, devs, cfg)
}

// EnhanceInto is Enhance into out (len(out) must be len(est)) and
// returns it. out may be est itself: each dimension is read before it is
// written, so a collector re-calibrates its naive vector in place.
func EnhanceInto(out, est []float64, devs []analysis.Deviation, cfg Config) []float64 {
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
	step := cfg.Step()
	for j, v := range est {
		dev := devs[0]
		if len(devs) > 1 {
			dev = devs[j]
		}
		out[j] = step.Apply(v, dev)
	}
	return out
}

// ShouldEnhance is the collector's pre-flight check: it returns true when
// the framework's Theorem 3 (L1) or Theorem 4 (L2) lower bound on the
// probability of improvement reaches minProb (default 0.5 when minProb is
// not in (0,1]). It packages the paper's "if the threshold ... is not
// reached, our re-calibration can be harmful" advice as a single call the
// collector can make before enabling HDR4ME at all.
func ShouldEnhance(joint analysis.JointDeviation, reg Reg, minProb float64) bool {
	if minProb <= 0 || minProb > 1 {
		minProb = 0.5
	}
	switch reg {
	case RegL1:
		return joint.Theorem3LowerBound() >= minProb
	case RegL2:
		return joint.Theorem4LowerBound() >= minProb
	default:
		return false
	}
}
