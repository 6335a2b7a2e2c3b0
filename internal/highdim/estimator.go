package highdim

import (
	"fmt"
	"math"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// KindMean identifies the sampling-protocol mean estimator family.
const KindMean = "mean"

// KindWholeTuple identifies the Duchi et al. whole-tuple family.
const KindWholeTuple = "wholetuple"

// ---- est.Estimator for the sampling-protocol Aggregator --------------------

// Kind implements est.Estimator.
func (a *Aggregator) Kind() string { return KindMean }

// Dims implements est.Estimator.
func (a *Aggregator) Dims() int { return a.P.D }

// AddReport implements est.Estimator (identical to Add; the name the
// unified pipeline uses).
func (a *Aggregator) AddReport(rep est.Report) error { return a.Add(rep) }

// Observe perturbs one raw tuple user-side — sampling m of d dimensions and
// spending EpsFor(j) on each — and accumulates the resulting report. The
// rng must not be shared with concurrent Observe calls; the accumulation
// itself is locked and safe.
func (a *Aggregator) Observe(t est.Tuple, rng *mathx.RNG) error {
	rep, err := a.MakeReport(t, rng)
	if err != nil {
		return err
	}
	return a.Add(rep)
}

// MakeReport implements est.Reporter: the user-side half of Observe,
// without the accumulation.
func (a *Aggregator) MakeReport(t est.Tuple, rng *mathx.RNG) (est.Report, error) {
	if len(t.Values) != a.P.D {
		return est.Report{}, fmt.Errorf("highdim: tuple has %d dims, protocol says %d", len(t.Values), a.P.D)
	}
	var buf [64]int // sample scratch; stays on the stack for m ≤ 64
	dims := rng.SampleIndices(a.P.D, a.P.M, buf[:0])
	rep := est.Report{Dims: make([]uint32, a.P.M), Values: make([]float64, a.P.M)}
	for i, j := range dims {
		rep.Dims[i] = uint32(j)
	}
	perturbSample(rep.Values, t.Values, dims, a.pert, rng)
	return rep, nil
}

// Snapshot implements est.Estimator: an atomic fold of every
// accumulation stripe plus the merge lane.
func (a *Aggregator) Snapshot() est.Snapshot {
	sums, counts := a.acc.Fold()
	return est.Snapshot{Kind: KindMean, Dims: a.P.D, Sums: sums, Counts: counts}
}

// Rotate implements est.Rotator: it drains every accumulation stripe
// (plus the merge lane) into a frozen epoch snapshot, leaving the live
// lanes empty for the next epoch.
func (a *Aggregator) Rotate() est.Snapshot {
	sums, counts := a.acc.DrainFold()
	return est.Snapshot{Kind: KindMean, Dims: a.P.D, Sums: sums, Counts: counts}
}

// Merge implements est.Estimator: it folds a peer collector's snapshot
// into the merge lane, never perturbing a report stripe.
func (a *Aggregator) Merge(s est.Snapshot) error {
	if err := est.CheckMerge(a, s, a.P.D, a.P.D); err != nil {
		return err
	}
	a.acc.LockedBase(func(sums []mathx.KahanSum, counts []int64) {
		for j := range sums {
			sums[j].Add(s.Sums[j])
			counts[j] += s.Counts[j]
		}
	})
	return nil
}

// ---- whole-tuple estimator --------------------------------------------------

// MDAggregator is the collector for the Duchi et al. whole-tuple mechanism:
// every report carries a full released tuple and the estimate is the plain
// per-dimension average (the release is unbiased, so no calibration step).
// It implements est.Estimator and is safe for concurrent use; accumulation
// is lock-striped exactly as the mean family's (est.Stripes).
type MDAggregator struct {
	M DuchiMD

	acc *est.Stripes // D sum lanes, one count lane (total tuples)
}

// NewMDAggregator returns an empty whole-tuple collector.
func NewMDAggregator(m DuchiMD) (*MDAggregator, error) {
	if _, err := NewDuchiMD(m.D, m.Eps); err != nil {
		return nil, err
	}
	return &MDAggregator{M: m, acc: est.NewStripes(est.DefaultStripeCount, m.D, 1)}, nil
}

// Kind implements est.Estimator.
func (a *MDAggregator) Kind() string { return KindWholeTuple }

// Dims implements est.Estimator.
func (a *MDAggregator) Dims() int { return a.M.D }

// Observe perturbs one raw tuple through the whole-tuple mechanism and
// accumulates the release.
func (a *MDAggregator) Observe(t est.Tuple, rng *mathx.RNG) error {
	rep, err := a.MakeReport(t, rng)
	if err != nil {
		return err
	}
	return a.AddReport(rep)
}

// MakeReport implements est.Reporter: one whole-tuple release, detached
// from accumulation.
func (a *MDAggregator) MakeReport(t est.Tuple, rng *mathx.RNG) (est.Report, error) {
	if len(t.Values) != a.M.D {
		return est.Report{}, fmt.Errorf("highdim: tuple has %d dims, duchi-md says %d", len(t.Values), a.M.D)
	}
	for j, v := range t.Values {
		if math.IsNaN(v) || v < -1 || v > 1 {
			// The raw value is the user's private datum: the error names
			// the offending dimension only (error strings reach collector
			// logs; ldpflow enforces this).
			return est.Report{}, fmt.Errorf("highdim: duchi-md value outside [−1, 1] at dimension %d", j)
		}
	}
	return est.Report{Values: a.M.PerturbTuple(rng, t.Values)}, nil
}

// validate checks one whole-tuple report: no sampled Dims, exactly D
// finite released values.
func (a *MDAggregator) validate(rep est.Report) error {
	if len(rep.Dims) != 0 {
		return fmt.Errorf("highdim: whole-tuple report must not carry sampled dims (have %d)", len(rep.Dims))
	}
	if len(rep.Values) != a.M.D {
		return fmt.Errorf("highdim: whole-tuple report has %d values, want %d", len(rep.Values), a.M.D)
	}
	for _, v := range rep.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("highdim: whole-tuple report value %v not finite", v)
		}
	}
	return nil
}

// AddReport implements est.Estimator: a whole-tuple report has no Dims and
// exactly D released values. It pins the serial stripe.
func (a *MDAggregator) AddReport(rep est.Report) error { return a.addAt(0, rep) }

func (a *MDAggregator) addAt(lane int, rep est.Report) error {
	if err := a.validate(rep); err != nil {
		return err
	}
	a.acc.Locked(lane, func(sums []mathx.KahanSum, counts []int64) {
		for j, v := range rep.Values {
			sums[j].Add(v)
		}
		counts[0]++
	})
	return nil
}

// AddReports implements est.BatchAdder: one stripe lock for the whole
// batch; malformed reports are skipped, accepted counts the rest.
func (a *MDAggregator) AddReports(reps []est.Report) (int, error) {
	return a.addReportsAt(a.acc.Acquire(), reps)
}

func (a *MDAggregator) addReportsAt(lane int, reps []est.Report) (accepted int, err error) {
	a.acc.Locked(lane, func(sums []mathx.KahanSum, counts []int64) {
		for _, rep := range reps {
			if verr := a.validate(rep); verr != nil {
				if err == nil {
					err = verr
				}
				continue
			}
			for j, v := range rep.Values {
				sums[j].Add(v)
			}
			counts[0]++
			accepted++
		}
	})
	return accepted, err
}

// AddColumns implements est.ColumnAdder: whole-tuple rows carry no dims
// (ndims must be 0) and exactly D values each; the batch accumulates
// under one stripe lock, bitwise-identical to the per-report path.
func (a *MDAggregator) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	return a.addColumnsAt(a.acc.Acquire(), n, ndims, nvals, dims, vals)
}

func (a *MDAggregator) addColumnsAt(lane, n, ndims, nvals int, dims []uint32, vals []float64) (accepted int, err error) {
	if cerr := est.CheckColumns(n, ndims, nvals, len(dims), len(vals)); cerr != nil {
		return 0, cerr
	}
	a.acc.Locked(lane, func(sums []mathx.KahanSum, counts []int64) {
		for i := 0; i < n; i++ {
			rep := est.Report{Dims: dims[i*ndims : (i+1)*ndims], Values: vals[i*nvals : (i+1)*nvals]}
			if verr := a.validate(rep); verr != nil {
				if err == nil {
					err = verr
				}
				continue
			}
			for j, v := range rep.Values {
				sums[j].Add(v)
			}
			counts[0]++
			accepted++
		}
	})
	return accepted, err
}

// AcquireLane implements est.LaneProvider.
func (a *MDAggregator) AcquireLane() est.Lane { return mdLane{a: a, lane: a.acc.Acquire()} }

// mdLane is a stripe-bound ingest handle over an MDAggregator.
type mdLane struct {
	a    *MDAggregator
	lane int
}

func (l mdLane) AddReport(rep est.Report) error { return l.a.addAt(l.lane, rep) }

func (l mdLane) AddReports(reps []est.Report) (int, error) { return l.a.addReportsAt(l.lane, reps) }

func (l mdLane) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	return l.a.addColumnsAt(l.lane, n, ndims, nvals, dims, vals)
}

// Estimate implements est.Estimator: the per-dimension average release.
func (a *MDAggregator) Estimate() []float64 {
	out, _ := a.EstimateFrom(a.Snapshot())
	return out
}

// EstimateFrom computes the per-dimension average from a snapshot of this
// (or an identically configured) collector.
func (a *MDAggregator) EstimateFrom(s est.Snapshot) ([]float64, error) {
	if err := est.CheckMerge(a, s, a.M.D, 1); err != nil {
		return nil, err
	}
	out := make([]float64, a.M.D)
	if s.Counts[0] == 0 {
		return out, nil
	}
	for j := range out {
		out[j] = s.Sums[j] / float64(s.Counts[0])
	}
	return out, nil
}

// Counts implements est.Estimator: every dimension has seen every tuple.
func (a *MDAggregator) Counts() []int64 {
	n := a.acc.FoldCounts()[0]
	out := make([]int64, a.M.D)
	for j := range out {
		out[j] = n
	}
	return out
}

// Snapshot implements est.Estimator: an atomic fold of every stripe.
func (a *MDAggregator) Snapshot() est.Snapshot {
	sums, counts := a.acc.Fold()
	return est.Snapshot{Kind: KindWholeTuple, Dims: a.M.D, Sums: sums, Counts: counts}
}

// EstimateWeighted implements est.WeightedEstimator: the per-dimension
// average from real-valued sums and a single real-valued count.
func (a *MDAggregator) EstimateWeighted(sums, counts []float64) ([]float64, error) {
	if len(sums) != a.M.D || len(counts) != 1 {
		return nil, fmt.Errorf("highdim: weighted fold shape %d/%d, want %d/1 sums/counts",
			len(sums), len(counts), a.M.D)
	}
	out := make([]float64, a.M.D)
	if counts[0] == 0 {
		return out, nil
	}
	for j := range out {
		out[j] = sums[j] / counts[0]
	}
	return out, nil
}

// Rotate implements est.Rotator: it drains every stripe into a frozen
// epoch snapshot, leaving the live lanes empty for the next epoch.
func (a *MDAggregator) Rotate() est.Snapshot {
	sums, counts := a.acc.DrainFold()
	return est.Snapshot{Kind: KindWholeTuple, Dims: a.M.D, Sums: sums, Counts: counts}
}

// Merge implements est.Estimator: peer snapshots fold into the merge lane.
func (a *MDAggregator) Merge(s est.Snapshot) error {
	if err := est.CheckMerge(a, s, a.M.D, 1); err != nil {
		return err
	}
	a.acc.LockedBase(func(sums []mathx.KahanSum, counts []int64) {
		for j := range sums {
			sums[j].Add(s.Sums[j])
		}
		counts[0] += s.Counts[0]
	})
	return nil
}

var (
	_ est.Estimator    = (*Aggregator)(nil)
	_ est.Estimator    = (*MDAggregator)(nil)
	_ est.Reporter     = (*Aggregator)(nil)
	_ est.Reporter     = (*MDAggregator)(nil)
	_ est.BatchAdder   = (*Aggregator)(nil)
	_ est.BatchAdder   = (*MDAggregator)(nil)
	_ est.LaneProvider = (*Aggregator)(nil)
	_ est.LaneProvider = (*MDAggregator)(nil)

	_ est.Rotator           = (*Aggregator)(nil)
	_ est.Rotator           = (*MDAggregator)(nil)
	_ est.SnapshotEstimator = (*Aggregator)(nil)
	_ est.SnapshotEstimator = (*MDAggregator)(nil)
	_ est.WeightedEstimator = (*Aggregator)(nil)
	_ est.WeightedEstimator = (*MDAggregator)(nil)
)
