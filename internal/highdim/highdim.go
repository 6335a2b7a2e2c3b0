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

	"github.com/hdr4me/hdr4me/internal/analysis"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/recal"
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
	rep := Report{
		Dims:   c.rng.SampleIndices(c.P.D, c.P.M, nil),
		Values: make([]float64, c.P.M),
	}
	if err := perturbSample(rep.Values, tuple, rep.Dims, c.pert, c.rng); err != nil {
		panic(err.Error())
	}
	return rep
}

// perturbSample sets vals[i] to tuple[dims[i]] perturbed by that
// dimension's randomizer (pert[j] under a per-dimension budget, pert[0]
// under a uniform one). It first checks every sampled value, so their
// loads (cache misses over a large population) are in flight together
// instead of each waiting on the previous perturbation, and so a value
// outside [−1, 1] (or NaN) is an error before any perturbation draw; the
// error names only its dimension, since the value is the user's private
// datum. It then perturbs in dimension order, reading each value from
// the tuple where it stands, so the draws are unchanged: under a uniform
// budget through one ldp.PerturbBatch call, under an allocated one value
// by value. No raw value is copied: vals receives only releases.
func perturbSample(vals, tuple []float64, dims []uint32, pert []ldp.Perturber, rng *mathx.RNG) error {
	for _, j := range dims {
		if v := tuple[j]; !(v >= -1 && v <= 1) {
			return fmt.Errorf("highdim: value outside [−1, 1] in dimension %d", j)
		}
	}
	if len(pert) == 1 {
		ldp.PerturbBatch(pert[0], rng, vals, tuple, dims)
		return nil
	}
	for i, j := range dims {
		vals[i] = pert[j].Perturb(rng, tuple[j])
	}
	return nil
}

// Aggregator is the collector side: it accumulates reports and produces the
// naive per-dimension mean estimate θ̂ (§IV-B step 3), applying the
// calibration step (§IV-B step 2) where the bias is data-independent.
// Every estimator method comes from the embedded est.Family core, which
// ingests through the mean kernel and estimates, and HDR4ME re-calibrates
// (§V), through the mean calibrator. It is safe for concurrent use.
type Aggregator struct {
	*est.Family
	P   Protocol
	cal *meanCal
}

// meanCal is the mean family's est.Deviator: its user-side perturbation
// at EpsFor(j), its calibration, and its HDR4ME deviations.
type meanCal struct {
	p Protocol
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
	// moms are the Lemma 2/3 moments at EpsFor(j) — under an
	// uninformative 21-atom uniform prior for a bounded mechanism, since
	// the collector never touches raw data — one entry under the uniform
	// budget, one per dimension under an allocation. They do not depend
	// on the report count, so an enhanced estimate only scales them.
	moms []analysis.Moments
}

// NewAggregator returns an empty collector for protocol p. Its Enhanced
// serves HDR4ME under recal.DefaultConfig(recal.RegL1); SetEnhance
// rebinds it.
func NewAggregator(p Protocol) *Aggregator {
	return newAggregator(p, []float64{p.EpsPerDim()}, nil)
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
	eps := append([]float64(nil), alloc.Eps...)
	return newAggregator(p, eps, eps), nil
}

// newAggregator builds the mean family over the per-dimension budgets
// eps (one entry: uniform); alloc is eps under an allocation, nil
// otherwise.
func newAggregator(p Protocol, eps, alloc []float64) *Aggregator {
	c := &meanCal{p: p, alloc: alloc, pert: make([]ldp.Perturber, len(eps)),
		shift: make([]float64, len(eps)), moms: make([]analysis.Moments, len(eps))}
	var prior *analysis.DataSpec
	if p.Mech.Bounded() {
		grid := analysis.UniformGridSpec(21)
		prior = &grid
	} else {
		for j, e := range eps {
			c.shift[j] = p.Mech.Bias(0, e)
		}
	}
	for j, e := range eps {
		c.pert[j] = ldp.At(p.Mech, e)
		c.moms[j] = analysis.Framework{Mech: p.Mech, EpsPerDim: e}.Moments(prior)
	}
	lay := est.Layout{Kind: KindMean, Dims: p.D, Sums: p.D, Counts: p.D}
	fam := est.NewFamily(meanKernel{m: p.M, d: p.D}, c, lay, recal.DefaultConfig(recal.RegL1))
	return &Aggregator{Family: fam, P: p, cal: c}
}

// EpsFor returns the perturbation budget of dimension j: the allocated
// εⱼ when an allocation is attached, the uniform ε/m otherwise.
func (a *Aggregator) EpsFor(j int) float64 {
	if a.cal.alloc != nil {
		return a.cal.alloc[j]
	}
	return a.P.EpsPerDim()
}

// Allocated reports whether a per-dimension allocation is attached, i.e.
// whether EpsFor can vary with j.
func (a *Aggregator) Allocated() bool { return a.cal.alloc != nil }

// Add accumulates one report, rejecting malformed ones with an error (the
// Estimator's AddReport). It pins the serial stripe, so a single-caller
// stream accumulates with exactly the pre-striping association.
func (a *Aggregator) Add(rep Report) error { return a.AddReport(rep) }

// MakeReport implements est.Reporter: it samples m of d dimensions and
// perturbs each with EpsFor(j).
func (c *meanCal) MakeReport(t est.Tuple, rng *mathx.RNG) (est.Report, error) {
	if len(t.Values) != c.p.D {
		return est.Report{}, fmt.Errorf("highdim: tuple has %d dims, protocol says %d", len(t.Values), c.p.D)
	}
	rep := est.Report{Dims: rng.SampleIndices(c.p.D, c.p.M, nil), Values: make([]float64, c.p.M)}
	if err := perturbSample(rep.Values, t.Values, rep.Dims, c.pert, rng); err != nil {
		return est.Report{}, err
	}
	return rep, nil
}

// Calibrate implements est.Calibrator: the naive aggregation
// θ̂ⱼ = (1/rⱼ)Σ t*ᵢⱼ less the data-independent bias for unbounded
// mechanisms (δ = E[N]; zero for every mechanism in this library, but
// subtracted on principle). Dimensions without reports estimate 0.
func (c *meanCal) Calibrate(dst, sums []float64, counts []int64) { calibrate(c, dst, sums, counts) }

// CalibrateWeighted implements est.Calibrator over real-valued counts.
func (c *meanCal) CalibrateWeighted(dst, sums, counts []float64) { calibrate(c, dst, sums, counts) }

// calibrate is the one loop behind both.
func calibrate[C int64 | float64](c *meanCal, out, sums []float64, counts []C) {
	for j := range out {
		out[j] = c.naiveAt(j, sums[j], float64(counts[j]))
	}
}

// naiveAt returns dimension j's calibrated naive estimate from its
// report sum and count r: sum/r less the data-independent bias, and 0
// for a dimension without reports.
func (c *meanCal) naiveAt(j int, sum, r float64) float64 {
	if r == 0 {
		return 0
	}
	if len(c.shift) == 1 {
		return sum/r - c.shift[0]
	}
	return sum/r - c.shift[j]
}

// Enhance implements est.Deviator: each dimension's deviation is its
// cached moments at its report count (at least 1), and step
// re-calibrates its naive value in place.
func (c *meanCal) Enhance(out []float64, counts []int64, step *recal.Step) {
	mom := c.moms[0]
	for j, n := range counts {
		if len(c.moms) > 1 {
			mom = c.moms[j]
		}
		out[j] = step.Apply(out[j], mom.At(max(float64(n), 1)))
	}
}

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
