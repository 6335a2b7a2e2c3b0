package est

import (
	"fmt"

	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/recal"
)

// Core is the whole estimator contract the collector serves: the
// Estimator methods plus detached reports, the batch, columnar and lane
// ingest paths, the reads into a caller's vector and the HDR4ME
// re-calibrated estimate. Family implements it once for every built-in
// family, epoch.Ring by embedding a Family, and Adapt for any other
// Estimator, so the registry, the server, the ring and the Session
// call it without probing for optional interfaces.
type Core interface {
	Estimator
	Reporter
	Enhancer
	Lane
	AcquireLane() Lane
	// EstimateInto and CountsInto are Estimate and Counts written into
	// dst's backing array (reallocated only when short), so a collector
	// that marshals the vector and discards it allocates nothing once
	// dst has held one.
	EstimateInto(dst []float64) []float64
	CountsInto(dst []int64) []int64
	// SnapshotInto is Snapshot into dst's Sums, Counts and Cards arrays,
	// reused the same way.
	SnapshotInto(dst *Snapshot)
	// EnhancedInto is Enhanced into dst.
	EnhancedInto(dst []float64) ([]float64, error)
	// Enhances reports whether Enhanced re-calibrates rather than errs.
	Enhances() bool
	// Striped reports whether MakeReport produces detached reports and
	// AcquireLane binds stripe-bound lanes, so a caller may perturb
	// outside any lock and land the report on a lane.
	Striped() bool
}

// Calibrator is what a family supplies besides its Kernel: the
// user-side perturbation (MakeReport) and the collector-side map from a
// fold to the naive estimate. Calibrate and CalibrateWeighted write the
// estimate of the fold (sums, counts) into dst, which has the family's
// Dims entries; the weighted form takes the real-valued effective
// counts of a decayed epoch fold. Every built-in family's estimate is a
// pure per-entry function of sum/count ratios, so the two agree for
// weight 1.
type Calibrator interface {
	Reporter
	Calibrate(dst, sums []float64, counts []int64)
	CalibrateWeighted(dst, sums, counts []float64)
}

// Deviator is a Calibrator whose naive estimate HDR4ME re-calibrates
// (§V): Enhance applies step in place to each entry of the naive
// estimate out, at that entry's framework deviation under the fold's
// counts. The family runs the entry loop itself, so the deviation is a
// static call; a per-entry method on an interface or a type parameter
// would be dispatched dynamically once per dimension.
type Deviator interface {
	Calibrator
	Enhance(out []float64, counts []int64, step *recal.Step)
}

// Layout is a family's shape: its Kind, the length Dims of its
// estimate, the per-dimension cardinalities every Snapshot carries
// (frequency family; nil otherwise) and its sum and count lane widths.
// Counts reports one count per dimension — len(Cards) of them when
// Cards is set, Dims otherwise; a family with a single count lane (the
// whole-tuple family: every tuple reports every dimension) repeats it.
type Layout struct {
	Kind         string
	Dims         int
	Cards        []int
	Sums, Counts int
}

// perDim returns how many per-dimension counts Counts reports.
func (l Layout) perDim() int {
	if l.Cards != nil {
		return len(l.Cards)
	}
	return l.Dims
}

// Family is the one estimator core: striped ingest through the
// family's Kernel, the fold, the naive estimate through its Calibrator,
// Snapshot, Rotate and Merge, and — when the Calibrator is a Deviator —
// the one-pass HDR4ME estimate: fold, calibrate, re-calibrate in place.
// It implements Core and Rotator. A family package builds one with
// NewFamily and adds only what is particular to it. Safe for concurrent
// use.
type Family struct {
	lay  Layout
	in   ingester
	acc  *Stripes // the fold side of in
	cal  Calibrator
	dev  Deviator // cal when it re-calibrates, nil otherwise
	step recal.Step
}

// ingester is the report side of an Ingest[K], whatever its K: the
// Family holds it behind this interface, one dynamic call per batch,
// while the per-report loop stays in the Ingest and calls its Kernel
// statically.
type ingester interface {
	Lane
	AcquireLane() Lane
	stripes() *Stripes
	empty() ingester
}

func (in *Ingest[K]) stripes() *Stripes { return &in.Stripes }

func (in *Ingest[K]) empty() ingester {
	return NewIngest(in.k, len(in.lanes), in.nsums, in.ncounts)
}

// NewFamily returns an empty family core ingesting through k into
// DefaultStripeCount stripes of the layout's lane widths and estimating
// through cal. When cal is a Deviator, Enhanced serves HDR4ME under cfg
// (see SetEnhance); otherwise Enhanced errors.
func NewFamily[K Kernel](k K, cal Calibrator, lay Layout, cfg recal.Config) *Family {
	in := NewIngest(k, DefaultStripeCount, lay.Sums, lay.Counts)
	f := &Family{lay: lay, in: in, acc: in.stripes(), cal: cal}
	f.dev, _ = cal.(Deviator)
	f.SetEnhance(cfg)
	return f
}

// SetEnhance binds the HDR4ME configuration Enhanced serves. Call it
// before the family is shared: it is not synchronized with reads.
func (f *Family) SetEnhance(cfg recal.Config) { f.step = cfg.Step() }

// Empty returns a new, empty family configured exactly as f: the same
// kernel, calibrator and enhancement. The epoch ring folds late reports
// through one.
func (f *Family) Empty() *Family {
	g := *f
	g.in = f.in.empty()
	g.acc = g.in.stripes()
	return &g
}

// Kind implements Estimator.
func (f *Family) Kind() string { return f.lay.Kind }

// Dims implements Estimator: the length of the estimate.
func (f *Family) Dims() int { return f.lay.Dims }

// Unflatten copies a flattened estimate of the frequency family into
// per-dimension rows, card(j) entries each; the other families have no
// cardinalities to split by.
func (f *Family) Unflatten(flat []float64) ([][]float64, error) {
	if f.lay.Cards == nil {
		return nil, fmt.Errorf("est: the %s family has no per-dimension entry vectors", f.lay.Kind)
	}
	if len(flat) != f.lay.Dims {
		return nil, fmt.Errorf("est: flat vector has %d entries, want %d", len(flat), f.lay.Dims)
	}
	out := make([][]float64, len(f.lay.Cards))
	for j, card := range f.lay.Cards {
		out[j] = append([]float64(nil), flat[:card]...)
		flat = flat[card:]
	}
	return out, nil
}

// Enhances implements Core: whether the family's calibrator is a
// Deviator.
func (f *Family) Enhances() bool { return f.dev != nil }

// Striped implements Core: every family reports through its calibrator
// and ingests through stripes.
func (f *Family) Striped() bool { return true }

// MakeReport implements Reporter through the family's calibrator.
func (f *Family) MakeReport(t Tuple, rng *mathx.RNG) (Report, error) {
	return f.cal.MakeReport(t, rng)
}

// Observe implements Estimator: MakeReport, then AddReport.
func (f *Family) Observe(t Tuple, rng *mathx.RNG) error {
	rep, err := f.cal.MakeReport(t, rng)
	if err != nil {
		return err
	}
	return f.in.AddReport(rep)
}

// AddReport implements Estimator. It pins the serial stripe, so a
// single-caller stream accumulates with the pre-striping association.
func (f *Family) AddReport(rep Report) error { return f.in.AddReport(rep) }

// AddReports implements BatchAdder: the whole batch accumulates under
// one stripe lock, the stripe chosen round-robin per call.
func (f *Family) AddReports(reps []Report) (int, error) { return f.in.AddReports(reps) }

// AddColumns implements ColumnAdder under one stripe lock, each row
// checked exactly as the per-report path checks it.
func (f *Family) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	return f.in.AddColumns(n, ndims, nvals, dims, vals)
}

// AcquireLane binds the caller to one stripe for the lifetime of the
// handle.
func (f *Family) AcquireLane() Lane { return f.in.AcquireLane() }

// Snapshot implements Estimator: an atomic fold of every stripe plus
// the merge lane.
func (f *Family) Snapshot() Snapshot {
	var s Snapshot
	f.SnapshotInto(&s)
	return s
}

// SnapshotInto is Snapshot into dst's arrays.
func (f *Family) SnapshotInto(dst *Snapshot) {
	dst.Kind, dst.Dims = f.lay.Kind, f.lay.Dims
	dst.Cards = append(dst.Cards[:0], f.lay.Cards...)
	dst.Sums, dst.Counts = f.acc.FoldInto(dst.Sums, dst.Counts)
}

// Rotate implements Rotator: it drains every stripe (and the merge
// lane) into a frozen epoch snapshot, leaving the live lanes empty.
func (f *Family) Rotate() Snapshot {
	sums, counts := f.acc.DrainFold()
	return Snapshot{Kind: f.lay.Kind, Dims: f.lay.Dims, Cards: append([]int(nil), f.lay.Cards...), Sums: sums, Counts: counts}
}

// Merge implements Estimator: a peer snapshot of the same family and
// configuration folds into the merge lane, never into a report stripe.
func (f *Family) Merge(s Snapshot) error {
	if err := f.check(s); err != nil {
		return err
	}
	f.acc.Merge(s.Sums, s.Counts)
	return nil
}

// check validates a snapshot's shape against the family's.
func (f *Family) check(s Snapshot) error {
	if err := CheckMerge(f, s, f.lay.Sums, f.lay.Counts); err != nil {
		return err
	}
	if len(s.Cards) != len(f.lay.Cards) {
		return fmt.Errorf("est: snapshot has %d cardinalities, estimator %d", len(s.Cards), len(f.lay.Cards))
	}
	for j, v := range s.Cards {
		if v != f.lay.Cards[j] {
			return fmt.Errorf("est: snapshot cards %v incompatible with estimator %v", s.Cards, f.lay.Cards)
		}
	}
	return nil
}

// Estimate implements Estimator: the running naive estimate.
func (f *Family) Estimate() []float64 { return f.EstimateInto(nil) }

// EstimateInto is Estimate into dst, from a pooled fold.
func (f *Family) EstimateInto(dst []float64) []float64 {
	s := GetScratch()
	s.Sums, s.Counts = f.acc.FoldInto(s.Sums, s.Counts)
	dst = Resize(dst, f.lay.Dims)
	f.cal.Calibrate(dst, s.Sums, s.Counts)
	PutScratch(s)
	return dst
}

// EstimateFromInto writes the naive estimate of a snapshot of this (or
// an identically configured) family into dst. The snapshot may be
// pooled scratch: nothing of it is retained or returned.
func (f *Family) EstimateFromInto(dst []float64, s Snapshot) ([]float64, error) {
	if err := f.check(s); err != nil {
		return nil, err
	}
	dst = Resize(dst, f.lay.Dims)
	f.cal.Calibrate(dst, s.Sums, s.Counts)
	return dst, nil
}

// EstimateWeightedInto is the naive estimate of real-valued sums and
// counts — a decayed epoch fold — written into dst.
func (f *Family) EstimateWeightedInto(dst, sums, counts []float64) ([]float64, error) {
	if len(sums) != f.lay.Sums || len(counts) != f.lay.Counts {
		return nil, fmt.Errorf("est: weighted fold shape %d/%d, want %d/%d sums/counts",
			len(sums), len(counts), f.lay.Sums, f.lay.Counts)
	}
	dst = Resize(dst, f.lay.Dims)
	f.cal.CalibrateWeighted(dst, sums, counts)
	return dst, nil
}

// Counts implements Estimator: the per-dimension report counts.
func (f *Family) Counts() []int64 { return f.CountsInto(nil) }

// CountsInto is Counts into dst.
func (f *Family) CountsInto(dst []int64) []int64 {
	if f.lay.Counts == f.lay.perDim() {
		return f.acc.FoldCounts(dst)
	}
	var total [1]int64
	return f.CountsFromInto(dst, f.acc.FoldCounts(total[:0]))
}

// CountsFromInto writes the per-dimension counts of a fold's count
// lanes into dst: a copy, or the single lane repeated.
func (f *Family) CountsFromInto(dst, counts []int64) []int64 {
	if f.lay.Counts == f.lay.perDim() {
		return append(dst[:0], counts...)
	}
	dst = Resize(dst, f.lay.perDim())
	for j := range dst {
		dst[j] = counts[0]
	}
	return dst
}

// Enhanced implements Enhancer: the HDR4ME re-calibrated estimate under
// the bound configuration.
func (f *Family) Enhanced() ([]float64, error) { return f.EnhancedInto(nil) }

// EnhancedInto is Enhanced into dst. It works from one pooled fold, so
// the estimate and the counts weighting its deviations describe the
// same instant even while reports stream in.
func (f *Family) EnhancedInto(dst []float64) ([]float64, error) {
	return f.enhanced(dst, &f.step)
}

// EnhancedWith is Enhanced under an alternative configuration: the same
// accumulated reports, different collector-side post-processing.
func (f *Family) EnhancedWith(cfg recal.Config) ([]float64, error) {
	step := cfg.Step()
	return f.enhanced(nil, &step)
}

// enhanced folds into pooled scratch and re-calibrates it into dst.
func (f *Family) enhanced(dst []float64, step *recal.Step) ([]float64, error) {
	s := GetScratch()
	f.SnapshotInto(s)
	out, err := f.enhancedFrom(dst, *s, step)
	PutScratch(s)
	return out, err
}

// EnhancedFromInto is Enhanced computed from a snapshot of this (or an
// identically configured) family, written into dst.
func (f *Family) EnhancedFromInto(dst []float64, s Snapshot) ([]float64, error) {
	return f.enhancedFrom(dst, s, &f.step)
}

// enhancedFrom is the one HDR4ME pass: the naive estimate of s, then
// the family's deviations and step, in place.
func (f *Family) enhancedFrom(dst []float64, s Snapshot, step *recal.Step) ([]float64, error) {
	if f.dev == nil {
		return nil, fmt.Errorf("est: %s estimator does not support enhancement", f.lay.Kind)
	}
	out, err := f.EstimateFromInto(dst, s)
	if err != nil {
		return nil, err
	}
	f.dev.Enhance(out, s.Counts, step)
	return out, nil
}

var (
	_ Core    = (*Family)(nil)
	_ Rotator = (*Family)(nil)
)

// Adapt returns e's whole contract: e itself when it already implements
// Core (every built-in family and the epoch ring), otherwise a wrapper
// that serves e's Estimator methods and whichever of its detached
// reports, batch and columnar paths, lanes and enhanced estimate it has
// (looked up here, once). What e lacks the wrapper fills in: AddReports
// one AddReport at a time, AddColumns over per-report views, lanes that
// pass straight through to e, copies of its allocating reads in the
// caller's vector, and errors for detached reports and the enhanced
// estimate. The server, the registry and the Session adapt a custom
// estimator once, at construction.
func Adapt(e Estimator) Core {
	if c, ok := e.(Core); ok {
		return c
	}
	a := &adapted{Estimator: e}
	a.rep, _ = e.(Reporter)
	a.batch, _ = e.(BatchAdder)
	a.cols, _ = e.(ColumnAdder)
	a.lanes, _ = e.(laneProvider)
	a.enh, _ = e.(Enhancer)
	return a
}

// laneProvider is a custom estimator's own striped ingest: AcquireLane
// binds the caller to one of its stripes.
type laneProvider interface{ AcquireLane() Lane }

// adapted is a custom Estimator under the Core contract. A nil field
// is a path e does not have.
type adapted struct {
	Estimator
	rep   Reporter
	batch BatchAdder
	cols  ColumnAdder
	lanes laneProvider
	enh   Enhancer
}

func (a *adapted) MakeReport(t Tuple, rng *mathx.RNG) (Report, error) {
	if a.rep == nil {
		return Report{}, fmt.Errorf("est: %s estimator cannot produce detached reports", a.Kind())
	}
	return a.rep.MakeReport(t, rng)
}

func (a *adapted) Enhances() bool { return a.enh != nil }

func (a *adapted) Striped() bool { return a.rep != nil && a.lanes != nil }

func (a *adapted) Enhanced() ([]float64, error) {
	if a.enh == nil {
		return nil, fmt.Errorf("est: %s estimator does not support enhancement", a.Kind())
	}
	return a.enh.Enhanced()
}

// EnhancedInto copies Enhanced's vector, which e may still hold, into
// dst.
func (a *adapted) EnhancedInto(dst []float64) ([]float64, error) {
	out, err := a.Enhanced()
	if err != nil {
		return nil, err
	}
	return append(dst[:0], out...), nil
}

func (a *adapted) AddReports(reps []Report) (accepted int, err error) {
	if a.batch != nil {
		return a.batch.AddReports(reps)
	}
	for _, rep := range reps {
		if aerr := a.AddReport(rep); aerr != nil {
			if err == nil {
				err = aerr
			}
			continue
		}
		accepted++
	}
	return accepted, err
}

// AddColumns is e's columnar path, or per-report views over the columns
// batch-added.
func (a *adapted) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	if a.cols != nil {
		return a.cols.AddColumns(n, ndims, nvals, dims, vals)
	}
	if err := CheckColumns(n, ndims, nvals, len(dims), len(vals)); err != nil {
		return 0, err
	}
	reps := make([]Report, n)
	for i := range reps {
		reps[i] = Report{Dims: dims[i*ndims : (i+1)*ndims], Values: vals[i*nvals : (i+1)*nvals]}
	}
	return a.AddReports(reps)
}

// AcquireLane is one of e's own lanes, or a pass-through to e.
func (a *adapted) AcquireLane() Lane {
	if a.lanes != nil {
		return a.lanes.AcquireLane()
	}
	return a
}

// EstimateInto and CountsInto copy the allocating reads, whose vectors
// e may still hold, into dst.
func (a *adapted) EstimateInto(dst []float64) []float64 { return append(dst[:0], a.Estimate()...) }

func (a *adapted) CountsInto(dst []int64) []int64 { return append(dst[:0], a.Counts()...) }

func (a *adapted) SnapshotInto(dst *Snapshot) { *dst = a.Snapshot() }
