// Package highdim implements the paper's high-dimensional collection
// protocol (§III-B, §IV-B): each user samples m of her d dimensions,
// perturbs each sampled value with budget ε/m using any one-dimensional LDP
// mechanism, and reports (dimension, value) pairs; the collector calibrates
// and averages the reports per dimension — the "naive aggregation" that
// HDR4ME later re-calibrates.
package highdim

import (
	"fmt"
	"math"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Protocol fixes the parameters every participant must agree on.
type Protocol struct {
	Mech ldp.Mechanism
	Eps  float64 // total per-user privacy budget ε
	D    int     // number of dimensions
	M    int     // dimensions reported per user (1 ≤ M ≤ D)
}

// NewProtocol validates and returns a protocol configuration.
func NewProtocol(mech ldp.Mechanism, eps float64, d, m int) (Protocol, error) {
	p := Protocol{Mech: mech, Eps: eps, D: d, M: m}
	return p, p.Validate()
}

// Validate checks the protocol invariants.
func (p Protocol) Validate() error {
	if p.Mech == nil {
		return fmt.Errorf("highdim: nil mechanism")
	}
	if !(p.Eps > 0) || math.IsInf(p.Eps, 0) {
		return fmt.Errorf("highdim: budget %v must be finite and positive", p.Eps)
	}
	if p.D < 1 {
		return fmt.Errorf("highdim: d=%d must be ≥ 1", p.D)
	}
	if p.M < 1 || p.M > p.D {
		return fmt.Errorf("highdim: m=%d must be in [1, %d]", p.M, p.D)
	}
	return nil
}

// EpsPerDim returns the per-dimension budget ε/m.
func (p Protocol) EpsPerDim() float64 { return p.Eps / float64(p.M) }

// ExpectedReports returns E[rⱼ] = n·m/d, the expected number of reports the
// collector receives per dimension from n users.
func (p Protocol) ExpectedReports(n int) float64 {
	return float64(n) * float64(p.M) / float64(p.D)
}

// Report is one user's submission: the sampled dimensions (strictly
// increasing) and their perturbed values. It is the est.Report wire shape,
// so the transport layer and the unified Estimator pipeline share it.
type Report = est.Report

// Client is the user side of the protocol. It is not safe for concurrent
// use; each goroutine should own a Client (they are cheap).
type Client struct {
	P    Protocol
	rng  *mathx.RNG
	pert []ldp.Perturber // one entry: the uniform ε/m
	dims []int
}

// NewClient returns a user-side perturber drawing randomness from rng.
func NewClient(p Protocol, rng *mathx.RNG) *Client {
	return &Client{P: p, rng: rng, pert: []ldp.Perturber{ldp.At(p.Mech, p.EpsPerDim())}}
}

// Report samples m dimensions of tuple, perturbs each with ε/m, and returns
// the report. tuple must have length d with values in [−1, 1]; a sampled
// value outside it panics with a message naming only its dimension.
func (c *Client) Report(tuple []float64) Report {
	if len(tuple) != c.P.D {
		panic(fmt.Sprintf("highdim: tuple has %d dims, protocol says %d", len(tuple), c.P.D))
	}
	c.dims = c.rng.SampleIndices(c.P.D, c.P.M, c.dims)
	rep := Report{
		Dims:   make([]uint32, c.P.M),
		Values: make([]float64, c.P.M),
	}
	for i, j := range c.dims {
		rep.Dims[i] = uint32(j)
	}
	if err := perturbSample(rep.Values, tuple, c.dims, c.pert, c.rng); err != nil {
		panic(err.Error())
	}
	return rep
}

// perturbSample sets vals[i] to tuple[dims[i]] perturbed by that
// dimension's randomizer (pert[j] under a per-dimension budget, pert[0]
// under a uniform one). It gathers up to 64 sampled values before
// perturbing any, so their loads (cache misses over a large population)
// are in flight together instead of each waiting on the previous
// perturbation. The perturbations still run in dimension order, so the
// draws are unchanged; under a uniform budget each chunk is one
// ldp.PerturbBatch call. Raw values stay in a stack buffer and never
// enter vals. A gathered value outside [−1, 1] (or NaN) is an error
// naming only its dimension, since the value is the user's private
// datum; it is returned before any value of its chunk of 64 is
// perturbed, so for m ≤ 64 before any perturbation draw.
func perturbSample(vals, tuple []float64, dims []int, pert []ldp.Perturber, rng *mathx.RNG) error {
	var raw [64]float64
	for lo := 0; lo < len(dims); lo += len(raw) {
		chunk := dims[lo:min(lo+len(raw), len(dims))]
		for k, j := range chunk {
			v := tuple[j]
			if !(v >= -1 && v <= 1) {
				return fmt.Errorf("highdim: value outside [−1, 1] in dimension %d", j)
			}
			raw[k] = v
		}
		if len(pert) == 1 {
			ldp.PerturbBatch(pert[0], rng, vals[lo:lo+len(chunk)], raw[:len(chunk)])
			continue
		}
		for k, j := range chunk {
			vals[lo+k] = pert[j].Perturb(rng, raw[k])
		}
	}
	return nil
}

// Aggregator is the collector side: it accumulates reports and produces the
// naive per-dimension mean estimate θ̂ (§IV-B step 3), applying the
// calibration step (§IV-B step 2) where the bias is data-independent.
// Aggregator is safe for concurrent use and implements est.Estimator.
// Accumulation is lock-striped (est.Ingest): Add pins the serial stripe,
// AddReports takes one stripe lock per batch, and AcquireLane hands heavy
// callers their own stripe, so concurrent ingest does not serialize on a
// single mutex.
type Aggregator struct {
	P Protocol
	// alloc optionally overrides the uniform ε/m with a per-dimension
	// budget (see Allocation); nil means uniform.
	alloc []float64
	// pert randomizes user-side at EpsFor(j): one Perturber under the
	// uniform budget, one per dimension under an allocation.
	pert []ldp.Perturber
	// shift is the calibration step's bias at EpsFor(j) (§IV-B step 2):
	// E[N] for an unbounded mechanism, 0 for a bounded one, whose bias
	// depends on the data. One value under the uniform budget, one per
	// dimension under an allocation; an estimate only divides and
	// subtracts.
	shift []float64

	acc *est.Ingest[meanKernel] // D sum lanes, D count lanes
}

// NewAggregator returns an empty collector for protocol p.
func NewAggregator(p Protocol) *Aggregator {
	eps := []float64{p.EpsPerDim()}
	return &Aggregator{
		P:     p,
		pert:  perturbers(p.Mech, eps),
		shift: shifts(p.Mech, eps),
		acc:   est.NewIngest(meanKernel{m: p.M, d: p.D}, est.DefaultStripeCount, p.D, p.D),
	}
}

// NewAllocatedAggregator returns an empty collector whose Observe path
// perturbs dimension j with alloc.Eps[j] instead of the uniform ε/m.
func NewAllocatedAggregator(p Protocol, alloc Allocation) (*Aggregator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(alloc.Eps) != p.D {
		return nil, fmt.Errorf("highdim: allocation has %d dims, protocol says %d", len(alloc.Eps), p.D)
	}
	if err := alloc.Validate(p.Eps, p.M); err != nil {
		return nil, err
	}
	a := NewAggregator(p)
	a.alloc = append([]float64(nil), alloc.Eps...)
	a.pert = perturbers(p.Mech, a.alloc)
	a.shift = shifts(p.Mech, a.alloc)
	return a, nil
}

// perturbers binds mech to each dimension's budget.
func perturbers(mech ldp.Mechanism, eps []float64) []ldp.Perturber {
	out := make([]ldp.Perturber, len(eps))
	for j, e := range eps {
		out[j] = ldp.At(mech, e)
	}
	return out
}

// shifts evaluates mech's calibration shift at each budget.
func shifts(mech ldp.Mechanism, eps []float64) []float64 {
	out := make([]float64, len(eps))
	if !mech.Bounded() {
		for j, e := range eps {
			out[j] = mech.Bias(0, e)
		}
	}
	return out
}

// EpsFor returns the perturbation budget of dimension j: the allocated
// εⱼ when an allocation is attached, the uniform ε/m otherwise.
func (a *Aggregator) EpsFor(j int) float64 {
	if a.alloc != nil {
		return a.alloc[j]
	}
	return a.P.EpsPerDim()
}

// Allocated reports whether a per-dimension allocation is attached, i.e.
// whether EpsFor can vary with j.
func (a *Aggregator) Allocated() bool { return a.alloc != nil }

// meanKernel is the mean family's ingest kernel. A report is paired
// lists of at most m strictly increasing in-range dimensions and finite
// values: one report is one user's m-subset, and a wire client must not
// be able to weight itself beyond that.
type meanKernel struct{ m, d int }

// Add implements est.Kernel.
func (k meanKernel) Add(l *est.Lanes, rep Report) error {
	if len(rep.Dims) != len(rep.Values) {
		return fmt.Errorf("highdim: report has %d dims but %d values", len(rep.Dims), len(rep.Values))
	}
	if len(rep.Dims) > k.m {
		return fmt.Errorf("highdim: report carries %d dims, protocol allows m=%d", len(rep.Dims), k.m)
	}
	for i, j := range rep.Dims {
		if int(j) >= k.d {
			return fmt.Errorf("highdim: report dimension %d out of range [0,%d)", j, k.d)
		}
		if i > 0 && j <= rep.Dims[i-1] {
			return fmt.Errorf("highdim: report dimensions must be strictly increasing, have %v", rep.Dims)
		}
	}
	for _, v := range rep.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("highdim: report value %v not finite", v)
		}
	}
	sums, counts := l.Sums, l.Counts
	for i, j := range rep.Dims {
		sums[j].Add(rep.Values[i])
		counts[j]++
	}
	return nil
}

// Add accumulates one report, rejecting malformed ones with an error. It
// pins the serial stripe, so a single-caller stream accumulates with
// exactly the pre-striping association.
func (a *Aggregator) Add(rep Report) error { return a.acc.AddReport(rep) }

// AddReports implements est.BatchAdder: the whole batch accumulates under
// one stripe lock (stripe chosen round-robin per call). Malformed reports
// are skipped, not fatal; accepted counts the rest and err carries the
// first rejection.
func (a *Aggregator) AddReports(reps []Report) (int, error) { return a.acc.AddReports(reps) }

// AddColumns implements est.ColumnAdder: a rectangular columnar batch
// (row-major dims and values) accumulates under one stripe lock without
// materializing per-report structures. Each row is validated with the
// exact per-report rules, so the accumulation is bitwise-identical to
// feeding the same rows through AddReports.
func (a *Aggregator) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	return a.acc.AddColumns(n, ndims, nvals, dims, vals)
}

// AcquireLane implements est.LaneProvider: the caller gets its own
// accumulation stripe for the lifetime of the handle.
func (a *Aggregator) AcquireLane() est.Lane { return a.acc.AcquireLane() }

// Counts returns a copy of the per-dimension report counts rⱼ.
func (a *Aggregator) Counts() []int64 { return a.CountsInto(nil) }

// CountsInto implements est.VectorFolder: Counts into dst.
func (a *Aggregator) CountsInto(dst []int64) []int64 { return a.acc.FoldCounts(dst) }

// Estimate returns the naive aggregation θ̂ⱼ = (1/rⱼ)Σ t*ᵢⱼ, calibrated by
// the data-independent bias for unbounded mechanisms (δ = E[N]; zero for
// every mechanism in this library, but subtracted on principle). Dimensions
// that received no reports estimate 0.
func (a *Aggregator) Estimate() []float64 { return a.EstimateInto(nil) }

// EstimateInto implements est.VectorFolder: Estimate into dst. The fold
// it estimates from is pooled scratch, so it allocates nothing once dst
// has held one estimate.
func (a *Aggregator) EstimateInto(dst []float64) []float64 {
	f := est.GetScratch()
	a.SnapshotInto(f)
	out := calibrate(a, est.Resize(dst, a.P.D), f.Sums, f.Counts)
	est.PutScratch(f)
	return out
}

// EstimateFrom computes the calibrated naive aggregation from a snapshot
// of this (or an identically configured) aggregator — the single source
// of the §IV-B calibration math, shared by Estimate, the collector-side
// enhancement and consistent Session results.
func (a *Aggregator) EstimateFrom(s est.Snapshot) ([]float64, error) {
	return a.EstimateFromInto(nil, s)
}

// EstimateFromInto implements est.SnapshotEstimator: EstimateFrom into
// dst.
func (a *Aggregator) EstimateFromInto(dst []float64, s est.Snapshot) ([]float64, error) {
	if err := est.CheckMerge(a, s, a.P.D, a.P.D); err != nil {
		return nil, err
	}
	return calibrate(a, est.Resize(dst, a.P.D), s.Sums, s.Counts), nil
}

// EstimateWeightedInto implements est.WeightedEstimator: the same
// calibrated aggregation as EstimateFrom computed from real-valued sums
// and counts, so decayed epoch folds (whose effective counts are
// non-integer) share the single source of the calibration math.
func (a *Aggregator) EstimateWeightedInto(dst, sums, counts []float64) ([]float64, error) {
	if len(sums) != a.P.D || len(counts) != a.P.D {
		return nil, fmt.Errorf("highdim: weighted fold shape %d/%d, want %d/%d sums/counts",
			len(sums), len(counts), a.P.D, a.P.D)
	}
	return calibrate(a, est.Resize(dst, a.P.D), sums, counts), nil
}

// calibrate writes the calibrated naive aggregation of (sums, counts)
// into out and returns it: the one loop behind Estimate, EstimateFrom
// and the weighted estimate.
func calibrate[C int64 | float64](a *Aggregator, out, sums []float64, counts []C) []float64 {
	for j := range out {
		out[j] = a.NaiveAt(j, sums[j], float64(counts[j]))
	}
	return out
}

// NaiveAt returns dimension j's calibrated naive estimate from its report
// sum and count r: sum/r less the data-independent bias, and 0 for a
// dimension without reports. It is the one formula behind every estimate
// of the family, so a collector that walks a fold itself (the one-pass
// HDR4ME re-calibration) calibrates exactly as Estimate does.
func (a *Aggregator) NaiveAt(j int, sum, r float64) float64 {
	if r == 0 {
		return 0
	}
	if len(a.shift) == 1 {
		return sum/r - a.shift[0]
	}
	return sum/r - a.shift[j]
}
