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
	rep := est.Report{Dims: rng.SampleIndices(a.P.D, a.P.M, nil), Values: make([]float64, a.P.M)}
	if err := perturbSample(rep.Values, t.Values, rep.Dims, a.pert, rng); err != nil {
		return est.Report{}, err
	}
	return rep, nil
}

// Snapshot implements est.Estimator: an atomic fold of every
// accumulation stripe plus the merge lane.
func (a *Aggregator) Snapshot() est.Snapshot {
	var s est.Snapshot
	a.SnapshotInto(&s)
	return s
}

// SnapshotInto implements est.SnapshotFolder: Snapshot into dst's arrays.
func (a *Aggregator) SnapshotInto(dst *est.Snapshot) {
	dst.Kind, dst.Dims, dst.Cards = KindMean, a.P.D, dst.Cards[:0]
	dst.Sums, dst.Counts = a.acc.FoldInto(dst.Sums, dst.Counts)
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
	a.acc.Merge(s.Sums, s.Counts)
	return nil
}

// ---- whole-tuple estimator --------------------------------------------------

// MDAggregator is the collector for the Duchi et al. whole-tuple mechanism:
// every report carries a full released tuple and the estimate is the plain
// per-dimension average (the release is unbiased, so no calibration step).
// It implements est.Estimator and is safe for concurrent use; accumulation
// is lock-striped exactly as the mean family's (est.Ingest).
type MDAggregator struct {
	M DuchiMD

	acc *est.Ingest[tupleKernel] // D sum lanes, one count lane (total tuples)
}

// NewMDAggregator returns an empty whole-tuple collector.
func NewMDAggregator(m DuchiMD) (*MDAggregator, error) {
	if _, err := NewDuchiMD(m.D, m.Eps); err != nil {
		return nil, err
	}
	return &MDAggregator{M: m, acc: est.NewIngest(tupleKernel{d: m.D}, est.DefaultStripeCount, m.D, 1)}, nil
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

// AddReport implements est.Estimator: a whole-tuple report has no Dims and
// exactly D released values. It pins the serial stripe.
func (a *MDAggregator) AddReport(rep est.Report) error { return a.acc.AddReport(rep) }

// AddReports implements est.BatchAdder: one stripe lock for the whole
// batch; malformed reports are skipped, accepted counts the rest.
func (a *MDAggregator) AddReports(reps []est.Report) (int, error) { return a.acc.AddReports(reps) }

// AddColumns implements est.ColumnAdder: whole-tuple rows carry no dims
// (ndims must be 0) and exactly D values each; the batch accumulates
// under one stripe lock, bitwise-identical to the per-report path.
func (a *MDAggregator) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	return a.acc.AddColumns(n, ndims, nvals, dims, vals)
}

// AcquireLane implements est.LaneProvider.
func (a *MDAggregator) AcquireLane() est.Lane { return a.acc.AcquireLane() }

// Estimate implements est.Estimator: the per-dimension average release.
func (a *MDAggregator) Estimate() []float64 { return a.EstimateInto(nil) }

// EstimateInto implements est.VectorFolder: Estimate into dst, from a
// pooled fold.
func (a *MDAggregator) EstimateInto(dst []float64) []float64 {
	f := est.GetScratch()
	a.SnapshotInto(f)
	out := average(est.Resize(dst, a.M.D), f.Sums, f.Counts[0])
	est.PutScratch(f)
	return out
}

// EstimateFrom computes the per-dimension average from a snapshot of this
// (or an identically configured) collector.
func (a *MDAggregator) EstimateFrom(s est.Snapshot) ([]float64, error) {
	return a.EstimateFromInto(nil, s)
}

// EstimateFromInto implements est.SnapshotEstimator: EstimateFrom into
// dst.
func (a *MDAggregator) EstimateFromInto(dst []float64, s est.Snapshot) ([]float64, error) {
	if err := est.CheckMerge(a, s, a.M.D, 1); err != nil {
		return nil, err
	}
	return average(est.Resize(dst, a.M.D), s.Sums, s.Counts[0]), nil
}

// average writes sums/n into out (zeros when n is 0) and returns it.
func average[C int64 | float64](out, sums []float64, n C) []float64 {
	if n == 0 {
		clear(out)
		return out
	}
	for j := range out {
		out[j] = sums[j] / float64(n)
	}
	return out
}

// Counts implements est.Estimator: every dimension has seen every tuple.
func (a *MDAggregator) Counts() []int64 { return a.CountsInto(nil) }

// CountsInto implements est.VectorFolder: Counts into dst.
func (a *MDAggregator) CountsInto(dst []int64) []int64 {
	var total [1]int64
	n := a.acc.FoldCounts(total[:0])[0]
	out := est.Resize(dst, a.M.D)
	for j := range out {
		out[j] = n
	}
	return out
}

// Snapshot implements est.Estimator: an atomic fold of every stripe.
func (a *MDAggregator) Snapshot() est.Snapshot {
	var s est.Snapshot
	a.SnapshotInto(&s)
	return s
}

// SnapshotInto implements est.SnapshotFolder: Snapshot into dst's arrays.
func (a *MDAggregator) SnapshotInto(dst *est.Snapshot) {
	dst.Kind, dst.Dims, dst.Cards = KindWholeTuple, a.M.D, dst.Cards[:0]
	dst.Sums, dst.Counts = a.acc.FoldInto(dst.Sums, dst.Counts)
}

// EstimateWeightedInto implements est.WeightedEstimator: the
// per-dimension average from real-valued sums and a single real-valued
// count, written into dst.
func (a *MDAggregator) EstimateWeightedInto(dst, sums, counts []float64) ([]float64, error) {
	if len(sums) != a.M.D || len(counts) != 1 {
		return nil, fmt.Errorf("highdim: weighted fold shape %d/%d, want %d/1 sums/counts",
			len(sums), len(counts), a.M.D)
	}
	return average(est.Resize(dst, a.M.D), sums, counts[0]), nil
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
	a.acc.Merge(s.Sums, s.Counts)
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
	_ est.SnapshotFolder    = (*Aggregator)(nil)
	_ est.SnapshotFolder    = (*MDAggregator)(nil)
	_ est.VectorFolder      = (*Aggregator)(nil)
	_ est.VectorFolder      = (*MDAggregator)(nil)
)
