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
// draws are unchanged. Raw values stay in a stack buffer and never enter
// vals. A gathered value outside [−1, 1] (or NaN) is an error naming only
// its dimension, since the value is the user's private datum; it is
// returned before any value of its chunk of 64 is perturbed, so for
// m ≤ 64 before any perturbation draw.
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
		for k, j := range chunk {
			vals[lo+k] = perturberAt(pert, j).Perturb(rng, raw[k])
		}
	}
	return nil
}

// Aggregator is the collector side: it accumulates reports and produces the
// naive per-dimension mean estimate θ̂ (§IV-B step 3), applying the
// calibration step (§IV-B step 2) where the bias is data-independent.
// Aggregator is safe for concurrent use and implements est.Estimator.
// Accumulation is lock-striped (est.Stripes): Add pins the serial stripe,
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

	acc *est.Stripes // D sum lanes, D count lanes
}

// NewAggregator returns an empty collector for protocol p.
func NewAggregator(p Protocol) *Aggregator {
	return &Aggregator{
		P:    p,
		pert: []ldp.Perturber{ldp.At(p.Mech, p.EpsPerDim())},
		acc:  est.NewStripes(est.DefaultStripeCount, p.D, p.D),
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

// perturberAt returns dimension j's user-side randomizer from pert, which
// holds one per dimension (bound to EpsFor(j)) under an allocation and a
// single shared one otherwise.
func perturberAt(pert []ldp.Perturber, j int) ldp.Perturber {
	if len(pert) > 1 {
		return pert[j]
	}
	return pert[0]
}

// validate checks one report against the protocol: paired lists, at most
// m strictly increasing in-range dimensions, finite values. One report is
// one user's m-subset, and a wire client must not be able to weight
// itself beyond that.
func (a *Aggregator) validate(rep Report) error {
	if len(rep.Dims) != len(rep.Values) {
		return fmt.Errorf("highdim: report has %d dims but %d values", len(rep.Dims), len(rep.Values))
	}
	if len(rep.Dims) > a.P.M {
		return fmt.Errorf("highdim: report carries %d dims, protocol allows m=%d", len(rep.Dims), a.P.M)
	}
	for i, j := range rep.Dims {
		if int(j) >= a.P.D {
			return fmt.Errorf("highdim: report dimension %d out of range [0,%d)", j, a.P.D)
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
	return nil
}

// Add accumulates one report, rejecting malformed ones with an error. It
// pins the serial stripe, so a single-caller stream accumulates with
// exactly the pre-striping association.
func (a *Aggregator) Add(rep Report) error { return a.addAt(0, rep) }

// addAt accumulates one validated report under stripe lane's lock.
func (a *Aggregator) addAt(lane int, rep Report) error {
	if err := a.validate(rep); err != nil {
		return err
	}
	a.acc.Locked(lane, func(sums []mathx.KahanSum, counts []int64) {
		for i, j := range rep.Dims {
			sums[j].Add(rep.Values[i])
			counts[j]++
		}
	})
	return nil
}

// AddReports implements est.BatchAdder: the whole batch accumulates under
// one stripe lock (stripe chosen round-robin per call). Malformed reports
// are skipped, not fatal; accepted counts the rest and err carries the
// first rejection.
func (a *Aggregator) AddReports(reps []Report) (int, error) {
	return a.addReportsAt(a.acc.Acquire(), reps)
}

func (a *Aggregator) addReportsAt(lane int, reps []Report) (accepted int, err error) {
	a.acc.Locked(lane, func(sums []mathx.KahanSum, counts []int64) {
		for _, rep := range reps {
			if verr := a.validate(rep); verr != nil {
				if err == nil {
					err = verr
				}
				continue
			}
			for i, j := range rep.Dims {
				sums[j].Add(rep.Values[i])
				counts[j]++
			}
			accepted++
		}
	})
	return accepted, err
}

// AddColumns implements est.ColumnAdder: a rectangular columnar batch
// (row-major dims and values) accumulates under one stripe lock without
// materializing per-report structures. Each row is validated with the
// exact per-report rules, so the accumulation is bitwise-identical to
// feeding the same rows through AddReports.
func (a *Aggregator) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	return a.addColumnsAt(a.acc.Acquire(), n, ndims, nvals, dims, vals)
}

func (a *Aggregator) addColumnsAt(lane, n, ndims, nvals int, dims []uint32, vals []float64) (accepted int, err error) {
	if cerr := est.CheckColumns(n, ndims, nvals, len(dims), len(vals)); cerr != nil {
		return 0, cerr
	}
	a.acc.Locked(lane, func(sums []mathx.KahanSum, counts []int64) {
		for i := 0; i < n; i++ {
			rep := Report{Dims: dims[i*ndims : (i+1)*ndims], Values: vals[i*nvals : (i+1)*nvals]}
			if verr := a.validate(rep); verr != nil {
				if err == nil {
					err = verr
				}
				continue
			}
			for k, j := range rep.Dims {
				sums[j].Add(rep.Values[k])
				counts[j]++
			}
			accepted++
		}
	})
	return accepted, err
}

// AcquireLane implements est.LaneProvider: the caller gets its own
// accumulation stripe for the lifetime of the handle.
func (a *Aggregator) AcquireLane() est.Lane { return aggLane{a: a, lane: a.acc.Acquire()} }

// aggLane is a stripe-bound ingest handle over an Aggregator.
type aggLane struct {
	a    *Aggregator
	lane int
}

func (l aggLane) AddReport(rep est.Report) error { return l.a.addAt(l.lane, rep) }

func (l aggLane) AddReports(reps []est.Report) (int, error) { return l.a.addReportsAt(l.lane, reps) }

func (l aggLane) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	return l.a.addColumnsAt(l.lane, n, ndims, nvals, dims, vals)
}

// Counts returns a copy of the per-dimension report counts rⱼ.
func (a *Aggregator) Counts() []int64 { return a.acc.FoldCounts() }

// Estimate returns the naive aggregation θ̂ⱼ = (1/rⱼ)Σ t*ᵢⱼ, calibrated by
// the data-independent bias for unbounded mechanisms (δ = E[N]; zero for
// every mechanism in this library, but subtracted on principle). Dimensions
// that received no reports estimate 0.
func (a *Aggregator) Estimate() []float64 {
	out, _ := a.EstimateFrom(a.Snapshot())
	return out
}

// EstimateFrom computes the calibrated naive aggregation from a snapshot
// of this (or an identically configured) aggregator — the single source
// of the §IV-B calibration math, shared by Estimate, the collector-side
// enhancement and consistent Session results.
func (a *Aggregator) EstimateFrom(s est.Snapshot) ([]float64, error) {
	if err := est.CheckMerge(a, s, a.P.D, a.P.D); err != nil {
		return nil, err
	}
	out := make([]float64, a.P.D)
	unbounded := !a.P.Mech.Bounded()
	for j := range out {
		if s.Counts[j] == 0 {
			continue
		}
		var delta float64
		if unbounded {
			delta = a.P.Mech.Bias(0, a.EpsFor(j))
		}
		out[j] = s.Sums[j]/float64(s.Counts[j]) - delta
	}
	return out, nil
}

// EstimateWeighted implements est.WeightedEstimator: the same calibrated
// aggregation as EstimateFrom computed from real-valued sums and counts,
// so decayed epoch folds (whose effective counts are non-integer) share
// the single source of the calibration math.
func (a *Aggregator) EstimateWeighted(sums, counts []float64) ([]float64, error) {
	if len(sums) != a.P.D || len(counts) != a.P.D {
		return nil, fmt.Errorf("highdim: weighted fold shape %d/%d, want %d/%d sums/counts",
			len(sums), len(counts), a.P.D, a.P.D)
	}
	out := make([]float64, a.P.D)
	unbounded := !a.P.Mech.Bounded()
	for j := range out {
		if counts[j] == 0 {
			continue
		}
		var delta float64
		if unbounded {
			delta = a.P.Mech.Bias(0, a.EpsFor(j))
		}
		out[j] = sums[j]/counts[j] - delta
	}
	return out, nil
}
