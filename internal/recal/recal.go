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
// package also ships the general proximal-gradient-descent route the paper
// derives the solvers from — useful as a verifier and for regularizers with
// no closed form.
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

func shrink(v, l float64) float64 {
	if math.IsInf(l, 1) {
		return 0
	}
	return v / (2*l + 1)
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

// l2Paper is L2LambdaPaper given sup = dev.SupAbs(conf).
func l2Paper(dev analysis.Deviation, sup float64) float64 {
	if dev.Delta == 0 {
		return math.Inf(1)
	}
	return sup / (2 * math.Abs(dev.Delta))
}

// L2LambdaFloored is the ablation variant: the reference mean is floored at
// floor > 0 so the weight stays finite even for unbiased mechanisms.
func L2LambdaFloored(dev analysis.Deviation, conf, floor float64) float64 {
	return l2Floored(dev, dev.SupAbs(conf), floor)
}

// l2Floored is L2LambdaFloored given sup = dev.SupAbs(conf).
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
// Enhance forms sup once per dimension and shares it between the guard and
// the weight.
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

// Enhance re-calibrates the naive estimate est given per-dimension framework
// deviations devs (len(devs) must be 1 — shared by all dimensions — or
// len(est)). It returns a new slice; est is never modified.
//
// It is one pass: the quantile Φ⁻¹((1+conf)/2) is formed once, and each
// dimension's sup-deviation, weight and solver step follow in place —
// bit for bit what SoftThreshold or Shrink return for the per-dimension
// weights Config.Lambda selects.
func Enhance(est []float64, devs []analysis.Deviation, cfg Config) []float64 {
	out := make([]float64, len(est))
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
