package analysis

import (
	"math"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// berryConstant and berryLinear are the Korolev–Shevtsova constants in the
// non-uniform Berry–Esseen bound sup|F̄ − F̂| ≤ C(ρ + 0.415·s³)/(s³·√r),
// which Theorem 2 instantiates for the deviation θ̂ⱼ − θ̄ⱼ.
const (
	berryConstant = 0.33554
	berryLinear   = 0.415
)

// BerryEsseen returns the Theorem 2 bound on the sup-distance between the
// true cdf of θ̂ⱼ − θ̄ⱼ and its Gaussian approximation, given the centered
// per-report third absolute moment ρ = E|t* − t − δ|³, the per-report
// standard deviation s = √Var(t*), and the report count r.
//
// The rate is O(1/√r): the framework's approximation error is tolerable even
// for modest report counts (the paper's §IV-D example: ≈1.57% at r = 1000).
func BerryEsseen(rho, s float64, r float64) float64 {
	if s <= 0 || r <= 0 {
		return math.Inf(1)
	}
	s3 := s * s * s
	return berryConstant * (rho + berryLinear*s3) / (s3 * math.Sqrt(r))
}

// BerryEsseenBound evaluates Theorem 2 for the framework's mechanism:
// per-report moments come from the mechanism (averaged over the data spec
// for bounded mechanisms) and the bound is taken at the framework's report
// count.
func (f Framework) BerryEsseenBound(spec *DataSpec) float64 {
	var rho, variance float64
	if !f.Mech.Bounded() {
		rho = f.Mech.ThirdAbsMoment(0, f.EpsPerDim)
		variance = f.Mech.Var(0, f.EpsPerDim)
	} else {
		if spec == nil {
			panic("analysis: bounded mechanism needs a DataSpec for Theorem 2")
		}
		if err := spec.Validate(); err != nil {
			panic(err)
		}
		var rk, vk mathx.KahanSum
		for z, v := range spec.Values {
			p := spec.Probs[z]
			rk.Add(p * f.Mech.ThirdAbsMoment(v, f.EpsPerDim))
			vk.Add(p * f.Mech.Var(v, f.EpsPerDim))
		}
		rho, variance = rk.Value(), vk.Value()
	}
	return BerryEsseen(rho, math.Sqrt(variance), f.R)
}
