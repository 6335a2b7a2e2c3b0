package highdim

import (
	"fmt"
	"math"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/recal"
)

// KindMean identifies the sampling-protocol mean estimator family.
const KindMean = "mean"

// KindWholeTuple identifies the Duchi et al. whole-tuple family.
const KindWholeTuple = "wholetuple"

// MDAggregator is the collector for the Duchi et al. whole-tuple mechanism:
// every report carries a full released tuple and the estimate is the plain
// per-dimension average (the release is unbiased, so no calibration step
// and no HDR4ME re-calibration). Every estimator method comes from the
// embedded est.Family core; it is safe for concurrent use.
type MDAggregator struct {
	*est.Family
	M DuchiMD
}

// NewMDAggregator returns an empty whole-tuple collector: D sum lanes and
// one count lane (total tuples), which Counts repeats per dimension.
func NewMDAggregator(m DuchiMD) (*MDAggregator, error) {
	if _, err := NewDuchiMD(m.D, m.Eps); err != nil {
		return nil, err
	}
	lay := est.Layout{Kind: KindWholeTuple, Dims: m.D, Sums: m.D, Counts: 1}
	return &MDAggregator{Family: est.NewFamily(tupleKernel{d: m.D}, tupleCal{m}, lay, recal.Config{}), M: m}, nil
}

// tupleCal is the whole-tuple family's est.Calibrator.
type tupleCal struct{ m DuchiMD }

// MakeReport implements est.Reporter: one whole-tuple release.
func (c tupleCal) MakeReport(t est.Tuple, rng *mathx.RNG) (est.Report, error) {
	if len(t.Values) != c.m.D {
		return est.Report{}, fmt.Errorf("highdim: tuple has %d dims, duchi-md says %d", len(t.Values), c.m.D)
	}
	for j, v := range t.Values {
		if math.IsNaN(v) || v < -1 || v > 1 {
			// The raw value is the user's private datum: the error names
			// the offending dimension only (error strings reach collector
			// logs; ldpflow enforces this).
			return est.Report{}, fmt.Errorf("highdim: duchi-md value outside [−1, 1] at dimension %d", j)
		}
	}
	return est.Report{Values: c.m.PerturbTuple(rng, t.Values)}, nil
}

// Calibrate implements est.Calibrator: the per-dimension average release.
func (tupleCal) Calibrate(dst, sums []float64, counts []int64) { average(dst, sums, counts[0]) }

// CalibrateWeighted implements est.Calibrator over a real-valued count.
func (tupleCal) CalibrateWeighted(dst, sums, counts []float64) { average(dst, sums, counts[0]) }

// average writes sums/n into out (zeros when n is 0).
func average[C int64 | float64](out, sums []float64, n C) {
	if n == 0 {
		clear(out)
		return
	}
	for j := range out {
		out[j] = sums[j] / float64(n)
	}
}

// tupleKernel is the whole-tuple family's ingest kernel: a report has no
// sampled Dims and exactly d finite released values, and counts once.
type tupleKernel struct{ d int }

// Add implements est.Kernel.
func (k tupleKernel) Add(l *est.Lanes, rep est.Report) error {
	if len(rep.Dims) != 0 {
		return fmt.Errorf("highdim: whole-tuple report must not carry sampled dims (have %d)", len(rep.Dims))
	}
	if len(rep.Values) != k.d {
		return fmt.Errorf("highdim: whole-tuple report has %d values, want %d", len(rep.Values), k.d)
	}
	for _, v := range rep.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("highdim: whole-tuple report value %v not finite", v)
		}
	}
	sums := l.Sums
	for j, v := range rep.Values {
		sums[j].Add(v)
	}
	l.Counts[0]++
	return nil
}

var (
	_ est.Deviator   = (*meanCal)(nil)
	_ est.Calibrator = tupleCal{}
)
