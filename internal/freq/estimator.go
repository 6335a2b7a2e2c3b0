package freq

import (
	"fmt"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/recal"
)

// KindFreq identifies the frequency/histogram estimator family.
const KindFreq = "freq"

// Flat adapts a frequency Aggregator to the unified est.Estimator
// interface by flattening the per-dimension frequency vectors into one
// concatenated coordinate space: entry (j, k) lives at Offset(j)+k. The
// flattened frame is the [0, 1] frequency frame (the entry frame of the
// paper's histogram encoding). Flat is safe for concurrent use.
type Flat struct {
	*Aggregator
	// Cfg parameterizes the HDR4ME re-calibration served by Enhanced.
	Cfg recal.Config
}

// NewFlat returns an empty frequency collector speaking the unified
// estimator interface. cfg parameterizes Enhanced (RegNone passes the
// naive estimate through). The flattened entry layout (offsets, total)
// lives on the embedded Aggregator, whose accumulation is lock-striped.
func NewFlat(p Protocol, cfg recal.Config) (*Flat, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Flat{Aggregator: NewAggregator(p), Cfg: cfg}, nil
}

// Kind implements est.Estimator.
func (f *Flat) Kind() string { return KindFreq }

// Dims implements est.Estimator: the total entry count Σⱼ card(j).
func (f *Flat) Dims() int { return f.total }

// Observe performs one user's contribution: sample m of the d categorical
// dimensions from t.Cats, histogram-encode each sampled dimension, perturb
// every entry with ε/(2m), and accumulate. The rng must not be shared with
// concurrent Observe calls.
func (f *Flat) Observe(t est.Tuple, rng *mathx.RNG) error {
	rep, err := f.MakeReport(t, rng)
	if err != nil {
		return err
	}
	return f.AddReport(rep)
}

// MakeReport implements est.Reporter: the user-side sample-and-perturb
// half of Observe, detached from accumulation.
func (f *Flat) MakeReport(t est.Tuple, rng *mathx.RNG) (est.Report, error) {
	p := f.Aggregator.P
	if len(t.Cats) != len(p.Cards) {
		return est.Report{}, fmt.Errorf("freq: tuple has %d dims, protocol says %d", len(t.Cats), len(p.Cards))
	}
	for j, c := range t.Cats {
		if c < 0 || c >= p.Cards[j] {
			// The raw category is the user's private value: the error
			// names the dimension and its range, never the value itself
			// (error strings reach collector logs; ldpflow enforces this).
			return est.Report{}, fmt.Errorf("freq: category out of range [0, %d) in dimension %d", p.Cards[j], j)
		}
	}
	epsEntry := p.EpsPerEntry()
	dims := rng.SampleIndices(len(p.Cards), p.M, nil)
	nvals := 0
	for _, j := range dims {
		nvals += p.Cards[j]
	}
	rep := est.Report{Dims: dims, Values: make([]float64, 0, nvals)}
	for _, j := range dims {
		for k := 0; k < p.Cards[j]; k++ {
			e := -1.0
			if k == t.Cats[j] {
				e = 1.0
			}
			rep.Values = append(rep.Values, p.Mech.Perturb(rng, e, epsEntry))
		}
	}
	return rep, nil
}

// AddReport implements est.Estimator. A frequency report lists the sampled
// dimensions in Dims (strictly increasing, at most m of them — one user's
// sample) and concatenates each dimension's perturbed one-hot vector
// (card(j) released-frame values) in Values, in the same order. It pins
// the serial stripe.
func (f *Flat) AddReport(rep est.Report) error { return f.acc.AddReport(rep) }

// AddReports implements est.BatchAdder: one stripe lock for the whole
// batch; malformed reports are skipped, accepted counts the rest and err
// carries the first rejection.
func (f *Flat) AddReports(reps []est.Report) (int, error) { return f.acc.AddReports(reps) }

// AddColumns implements est.ColumnAdder: a rectangular columnar batch of
// frequency rows (row i's dims own dims[i*ndims:(i+1)*ndims], its
// concatenated one-hot frames vals[i*nvals:(i+1)*nvals]) accumulates
// under one stripe lock, with each row validated by the exact per-report
// rules (Σ card(j) over the row's dims must equal nvals for the row to
// land).
func (f *Flat) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	return f.acc.AddColumns(n, ndims, nvals, dims, vals)
}

// AcquireLane implements est.LaneProvider.
func (f *Flat) AcquireLane() est.Lane { return f.acc.AcquireLane() }

// Estimate implements est.Estimator: the flattened naive frequency
// estimates in [0, 1] (unprojected; see ProjectSimplex). A dimension
// without reports estimates 1/2 in every entry.
func (f *Flat) Estimate() []float64 { return f.EstimateInto(nil) }

// EstimateInto implements est.VectorFolder: Estimate into dst, from a
// pooled fold.
func (f *Flat) EstimateInto(dst []float64) []float64 {
	s := est.GetScratch()
	f.SnapshotInto(s)
	out := naiveInto(f.Aggregator, est.Resize(dst, f.total), s.Sums, s.Counts)
	est.PutScratch(s)
	return out
}

// EstimateFrom computes the flattened naive frequency estimates from a
// snapshot of this (or an identically configured) collector, exactly as
// Estimate does from the live fold.
func (f *Flat) EstimateFrom(s est.Snapshot) ([]float64, error) { return f.EstimateFromInto(nil, s) }

// EstimateFromInto implements est.SnapshotEstimator: EstimateFrom into
// dst.
func (f *Flat) EstimateFromInto(dst []float64, s est.Snapshot) ([]float64, error) {
	if err := est.CheckMerge(f, s, f.total, len(f.Aggregator.P.Cards)); err != nil {
		return nil, err
	}
	return naiveInto(f.Aggregator, est.Resize(dst, f.total), s.Sums, s.Counts), nil
}

// EstimateWeightedInto implements est.WeightedEstimator: the same naive
// frequency mapping as EstimateFrom computed from real-valued sums and
// per-dimension counts, so decayed epoch folds share the math.
func (f *Flat) EstimateWeightedInto(dst, sums, counts []float64) ([]float64, error) {
	if len(sums) != f.total || len(counts) != len(f.Aggregator.P.Cards) {
		return nil, fmt.Errorf("freq: weighted fold shape %d/%d, want %d/%d sums/counts",
			len(sums), len(counts), f.total, len(f.Aggregator.P.Cards))
	}
	return naiveInto(f.Aggregator, est.Resize(dst, f.total), sums, counts), nil
}

// Enhanced implements est.Enhancer: the flattened HDR4ME re-calibrated
// frequencies under the bound configuration.
func (f *Flat) Enhanced() ([]float64, error) { return f.EnhancedInto(nil) }

// EnhancedInto implements est.EnhancedFolder: Enhanced into dst, from
// one pooled fold.
func (f *Flat) EnhancedInto(dst []float64) ([]float64, error) {
	s := est.GetScratch()
	f.SnapshotInto(s)
	out, err := f.enhancedFrom(dst, *s)
	est.PutScratch(s)
	return out, err
}

// EnhancedFrom is Enhanced computed from a snapshot of this (or an
// identically configured) collector: the naive estimate, re-calibrated
// in place.
func (f *Flat) EnhancedFrom(s est.Snapshot) ([]float64, error) { return f.enhancedFrom(nil, s) }

// enhancedFrom is EnhancedFrom into dst.
func (f *Flat) enhancedFrom(dst []float64, s est.Snapshot) ([]float64, error) {
	out, err := f.EstimateFromInto(dst, s)
	if err != nil {
		return nil, err
	}
	return f.enhanceInto(out, out, s.Counts, f.Cfg), nil
}

// Unflatten maps a flattened entry vector back to per-dimension frequency
// vectors (the shape TrueFreqs and ProjectSimplex speak).
func (f *Flat) Unflatten(flat []float64) ([][]float64, error) {
	if len(flat) != f.total {
		return nil, fmt.Errorf("freq: flat vector has %d entries, want %d", len(flat), f.total)
	}
	p := f.Aggregator.P
	out := make([][]float64, len(p.Cards))
	for j, v := range p.Cards {
		out[j] = append([]float64(nil), flat[f.offsets[j]:f.offsets[j]+v]...)
	}
	return out, nil
}

// Snapshot implements est.Estimator: flattened released-frame sums plus
// per-dimension report counts, folded atomically across every stripe.
func (f *Flat) Snapshot() est.Snapshot {
	var s est.Snapshot
	f.SnapshotInto(&s)
	return s
}

// SnapshotInto implements est.SnapshotFolder: Snapshot into dst's arrays.
func (f *Flat) SnapshotInto(dst *est.Snapshot) {
	dst.Kind, dst.Dims = KindFreq, f.total
	dst.Cards = append(dst.Cards[:0], f.Aggregator.P.Cards...)
	dst.Sums, dst.Counts = f.acc.FoldInto(dst.Sums, dst.Counts)
}

// Rotate implements est.Rotator: it drains every stripe into a frozen
// epoch snapshot, leaving the live lanes empty for the next epoch.
func (f *Flat) Rotate() est.Snapshot {
	sums, counts := f.acc.DrainFold()
	cards := append([]int(nil), f.Aggregator.P.Cards...)
	return est.Snapshot{Kind: KindFreq, Dims: f.total, Cards: cards, Sums: sums, Counts: counts}
}

// Merge implements est.Estimator: peer snapshots fold into the merge lane.
func (f *Flat) Merge(s est.Snapshot) error {
	a := f.Aggregator
	if err := est.CheckMerge(f, s, f.total, len(a.P.Cards)); err != nil {
		return err
	}
	if len(s.Cards) != len(a.P.Cards) {
		return fmt.Errorf("freq: snapshot has %d cardinalities, protocol %d", len(s.Cards), len(a.P.Cards))
	}
	for j, v := range s.Cards {
		if v != a.P.Cards[j] {
			return fmt.Errorf("freq: snapshot cards %v incompatible with protocol %v", s.Cards, a.P.Cards)
		}
	}
	a.acc.Merge(s.Sums, s.Counts)
	return nil
}

var (
	_ est.Estimator    = (*Flat)(nil)
	_ est.Enhancer     = (*Flat)(nil)
	_ est.Reporter     = (*Flat)(nil)
	_ est.BatchAdder   = (*Flat)(nil)
	_ est.LaneProvider = (*Flat)(nil)

	_ est.Rotator           = (*Flat)(nil)
	_ est.SnapshotEstimator = (*Flat)(nil)
	_ est.WeightedEstimator = (*Flat)(nil)
	_ est.SnapshotFolder    = (*Flat)(nil)
	_ est.VectorFolder      = (*Flat)(nil)
	_ est.EnhancedFolder    = (*Flat)(nil)
)
