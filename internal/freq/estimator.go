package freq

import (
	"fmt"
	"math"

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

// Offset returns the flattened index of dimension j's first entry.
func (f *Flat) Offset(j int) int { return f.offsets[j] }

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
	var buf [64]int // sample scratch; stays on the stack for m ≤ 64
	dims := rng.SampleIndices(len(p.Cards), p.M, buf[:0])
	nvals := 0
	for _, j := range dims {
		nvals += p.Cards[j]
	}
	rep := est.Report{Dims: make([]uint32, len(dims)), Values: make([]float64, 0, nvals)}
	for i, j := range dims {
		rep.Dims[i] = uint32(j)
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

// validate checks one frequency report: at most m strictly increasing
// in-range dimensions, a value vector of exactly Σ card(j) finite
// released-frame entries over the sampled dims.
func (f *Flat) validate(rep est.Report) error {
	p := f.Aggregator.P
	if len(rep.Dims) > p.M {
		return fmt.Errorf("freq: report carries %d dims, protocol allows m=%d", len(rep.Dims), p.M)
	}
	want := 0
	for i, j := range rep.Dims {
		if int(j) >= len(p.Cards) {
			return fmt.Errorf("freq: report dimension %d out of range [0, %d)", j, len(p.Cards))
		}
		if i > 0 && j <= rep.Dims[i-1] {
			return fmt.Errorf("freq: report dimensions must be strictly increasing, have %v", rep.Dims)
		}
		want += p.Cards[j]
	}
	if len(rep.Values) != want {
		return fmt.Errorf("freq: report has %d values, dims %v require %d", len(rep.Values), rep.Dims, want)
	}
	for _, v := range rep.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("freq: report value %v not finite", v)
		}
	}
	return nil
}

// accumulate folds one validated report into the given lanes; the caller
// holds the stripe lock.
func (f *Flat) accumulate(sums []mathx.KahanSum, counts []int64, rep est.Report) {
	p := f.Aggregator.P
	off := 0
	for _, j := range rep.Dims {
		base := f.offsets[j]
		for k := 0; k < p.Cards[j]; k++ {
			sums[base+k].Add(rep.Values[off+k])
		}
		counts[j]++
		off += p.Cards[j]
	}
}

// AddReport implements est.Estimator. A frequency report lists the sampled
// dimensions in Dims (strictly increasing, at most m of them — one user's
// sample) and concatenates each dimension's perturbed one-hot vector
// (card(j) released-frame values) in Values, in the same order. It pins
// the serial stripe.
func (f *Flat) AddReport(rep est.Report) error { return f.addAt(0, rep) }

func (f *Flat) addAt(lane int, rep est.Report) error {
	if err := f.validate(rep); err != nil {
		return err
	}
	f.acc.Locked(lane, func(sums []mathx.KahanSum, counts []int64) {
		f.accumulate(sums, counts, rep)
	})
	return nil
}

// AddReports implements est.BatchAdder: one stripe lock for the whole
// batch; malformed reports are skipped, accepted counts the rest and err
// carries the first rejection.
func (f *Flat) AddReports(reps []est.Report) (int, error) {
	return f.addReportsAt(f.acc.Acquire(), reps)
}

func (f *Flat) addReportsAt(lane int, reps []est.Report) (accepted int, err error) {
	f.acc.Locked(lane, func(sums []mathx.KahanSum, counts []int64) {
		for _, rep := range reps {
			if verr := f.validate(rep); verr != nil {
				if err == nil {
					err = verr
				}
				continue
			}
			f.accumulate(sums, counts, rep)
			accepted++
		}
	})
	return accepted, err
}

// AddColumns implements est.ColumnAdder: a rectangular columnar batch of
// frequency rows (row i's dims own dims[i*ndims:(i+1)*ndims], its
// concatenated one-hot frames vals[i*nvals:(i+1)*nvals]) accumulates
// under one stripe lock, with each row validated by the exact per-report
// rules (Σ card(j) over the row's dims must equal nvals for the row to
// land).
func (f *Flat) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	return f.addColumnsAt(f.acc.Acquire(), n, ndims, nvals, dims, vals)
}

func (f *Flat) addColumnsAt(lane, n, ndims, nvals int, dims []uint32, vals []float64) (accepted int, err error) {
	if cerr := est.CheckColumns(n, ndims, nvals, len(dims), len(vals)); cerr != nil {
		return 0, cerr
	}
	f.acc.Locked(lane, func(sums []mathx.KahanSum, counts []int64) {
		for i := 0; i < n; i++ {
			rep := est.Report{Dims: dims[i*ndims : (i+1)*ndims], Values: vals[i*nvals : (i+1)*nvals]}
			if verr := f.validate(rep); verr != nil {
				if err == nil {
					err = verr
				}
				continue
			}
			f.accumulate(sums, counts, rep)
			accepted++
		}
	})
	return accepted, err
}

// AcquireLane implements est.LaneProvider.
func (f *Flat) AcquireLane() est.Lane { return flatLane{f: f, lane: f.acc.Acquire()} }

// flatLane is a stripe-bound ingest handle over a Flat.
type flatLane struct {
	f    *Flat
	lane int
}

func (l flatLane) AddReport(rep est.Report) error { return l.f.addAt(l.lane, rep) }

func (l flatLane) AddReports(reps []est.Report) (int, error) { return l.f.addReportsAt(l.lane, reps) }

func (l flatLane) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	return l.f.addColumnsAt(l.lane, n, ndims, nvals, dims, vals)
}

// Estimate implements est.Estimator: the flattened naive frequency
// estimates in [0, 1] (unprojected; see ProjectSimplex).
func (f *Flat) Estimate() []float64 {
	return f.flatten(f.Aggregator.Estimate())
}

// EstimateFrom computes the flattened naive frequency estimates from a
// snapshot of this (or an identically configured) collector.
func (f *Flat) EstimateFrom(s est.Snapshot) ([]float64, error) {
	if err := est.CheckMerge(f, s, f.total, len(f.Aggregator.P.Cards)); err != nil {
		return nil, err
	}
	out := make([]float64, f.total)
	for j, card := range f.Aggregator.P.Cards {
		if s.Counts[j] == 0 {
			continue
		}
		for k := 0; k < card; k++ {
			i := f.offsets[j] + k
			out[i] = (s.Sums[i]/float64(s.Counts[j]) + 1) / 2
		}
	}
	return out, nil
}

// EstimateWeighted implements est.WeightedEstimator: the same naive
// frequency mapping as EstimateFrom computed from real-valued sums and
// per-dimension counts, so decayed epoch folds share the math.
func (f *Flat) EstimateWeighted(sums, counts []float64) ([]float64, error) {
	if len(sums) != f.total || len(counts) != len(f.Aggregator.P.Cards) {
		return nil, fmt.Errorf("freq: weighted fold shape %d/%d, want %d/%d sums/counts",
			len(sums), len(counts), f.total, len(f.Aggregator.P.Cards))
	}
	out := make([]float64, f.total)
	for j, card := range f.Aggregator.P.Cards {
		if counts[j] == 0 {
			continue
		}
		for k := 0; k < card; k++ {
			i := f.offsets[j] + k
			out[i] = (sums[i]/counts[j] + 1) / 2
		}
	}
	return out, nil
}

// Enhanced implements est.Enhancer: the flattened HDR4ME re-calibrated
// frequencies under the bound configuration.
func (f *Flat) Enhanced() ([]float64, error) {
	_, enhanced := f.Aggregator.EstimateEnhanced(f.Cfg)
	return f.flatten(enhanced), nil
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

func (f *Flat) flatten(rows [][]float64) []float64 {
	out := make([]float64, 0, f.total)
	for _, row := range rows {
		out = append(out, row...)
	}
	return out
}

// Snapshot implements est.Estimator: flattened released-frame sums plus
// per-dimension report counts, folded atomically across every stripe.
func (f *Flat) Snapshot() est.Snapshot {
	sums, counts := f.acc.Fold()
	return est.Snapshot{
		Kind:   KindFreq,
		Dims:   f.total,
		Cards:  append([]int(nil), f.Aggregator.P.Cards...),
		Sums:   sums,
		Counts: counts,
	}
}

// Rotate implements est.Rotator: it drains every stripe into a frozen
// epoch snapshot, leaving the live lanes empty for the next epoch.
func (f *Flat) Rotate() est.Snapshot {
	sums, counts := f.acc.DrainFold()
	return est.Snapshot{
		Kind:   KindFreq,
		Dims:   f.total,
		Cards:  append([]int(nil), f.Aggregator.P.Cards...),
		Sums:   sums,
		Counts: counts,
	}
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
	a.acc.LockedBase(func(sums []mathx.KahanSum, counts []int64) {
		for i := range sums {
			sums[i].Add(s.Sums[i])
		}
		for j := range counts {
			counts[j] += s.Counts[j]
		}
	})
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
)
