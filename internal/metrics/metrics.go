// Package metrics implements the utility metrics of the paper's evaluation:
// mean square error over dimensions (Eq. 3), the Euclidean deviation (Eq. 2),
// and summary statistics over repeated trials.
package metrics

import (
	"fmt"
	"math"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// MSE returns (1/d)·Σⱼ (estⱼ − truthⱼ)², the paper's Eq. 3.
func MSE(est, truth []float64) float64 {
	if len(est) != len(truth) {
		panic(fmt.Sprintf("metrics: length mismatch %d vs %d", len(est), len(truth)))
	}
	if len(est) == 0 {
		return 0
	}
	var k mathx.KahanSum
	for j := range est {
		d := est[j] - truth[j]
		k.Add(d * d)
	}
	return k.Value() / float64(len(est))
}

// L2Deviation returns ‖est − truth‖₂, the paper's Eq. 2. It relates to MSE
// by MSE = ‖·‖₂²/d.
func L2Deviation(est, truth []float64) float64 {
	return mathx.Norm2(mathx.Sub(est, truth))
}

// WeightedMSE returns (Σⱼ wⱼ(estⱼ − truthⱼ)²)/(Σⱼ wⱼ): the metric the
// importance-aware budget allocators optimize — dimensions that matter more
// (higher wⱼ) contribute more to the reported error.
func WeightedMSE(est, truth, weights []float64) float64 {
	if len(est) != len(truth) || len(est) != len(weights) {
		panic("metrics: length mismatch")
	}
	var num, den mathx.KahanSum
	for j := range est {
		d := est[j] - truth[j]
		num.Add(weights[j] * d * d)
		den.Add(weights[j])
	}
	if den.Value() == 0 {
		return 0
	}
	return num.Value() / den.Value()
}

// Summary aggregates a metric across repeated trials.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	halfCI95  float64
}

// Summarize computes trial statistics; Std is the sample standard deviation.
func Summarize(values []float64) Summary {
	s := Summary{N: len(values), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(values) == 0 {
		s.Min, s.Max = 0, 0
		return s
	}
	var w mathx.Welford
	for _, v := range values {
		w.Add(v)
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = w.Mean()
	s.Std = math.Sqrt(w.SampleVar())
	if s.N > 1 {
		s.halfCI95 = 1.959963984540054 * s.Std / math.Sqrt(float64(s.N))
	}
	return s
}

// String renders the summary as "mean ± ci (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.6g ± %.2g (n=%d)", s.Mean, s.halfCI95, s.N)
}

// Improvement returns the multiplicative utility gain of enhanced over
// baseline MSE: baseline/enhanced. Values > 1 mean the enhancement wins.
// Returns +Inf if enhanced is zero and baseline positive, 1 if both zero.
func Improvement(baseline, enhanced float64) float64 {
	if enhanced == 0 {
		if baseline == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return baseline / enhanced
}
