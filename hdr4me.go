package hdr4me

import (
	"sort"
	"time"

	"github.com/hdr4me/hdr4me/internal/analysis"
	"github.com/hdr4me/hdr4me/internal/dataset"
	"github.com/hdr4me/hdr4me/internal/dist"
	"github.com/hdr4me/hdr4me/internal/freq"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/metrics"
	"github.com/hdr4me/hdr4me/internal/recal"
	"github.com/hdr4me/hdr4me/internal/transport"
)

// Mechanism is a one-dimensional ε-LDP perturbation on [−1, 1]; see the
// methods' documentation in the internal ldp package.
type Mechanism = ldp.Mechanism

// Mechanism constructors for the seven implemented mechanisms.
func Laplace() Mechanism    { return ldp.Laplace{} }
func Piecewise() Mechanism  { return ldp.Piecewise{} }
func SquareWave() Mechanism { return ldp.SquareWave{} }
func Duchi() Mechanism      { return ldp.Duchi{} }
func Hybrid() Mechanism     { return ldp.Hybrid{} }
func Staircase() Mechanism  { return ldp.Staircase{} }
func SCDF() Mechanism       { return ldp.SCDF{} }

// MechanismByName resolves "laplace", "piecewise", "squarewave", "duchi",
// "hybrid", "staircase" or "scdf".
func MechanismByName(name string) (Mechanism, error) { return ldp.ByName(name) }

// MechanismNames returns the canonical names of every implemented
// mechanism, sorted — the strings MechanismByName resolves.
func MechanismNames() []string {
	reg := ldp.Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// EvaluatedMechanisms returns the three mechanisms of the paper's
// evaluation: Laplace, Piecewise, Square Wave.
func EvaluatedMechanisms() []Mechanism { return ldp.Evaluated() }

// RNG is the deterministic splittable random source used everywhere.
type RNG = mathx.RNG

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed uint64) *RNG { return mathx.NewRNG(seed) }

// Dataset is a fixed population of d-dimensional tuples in [−1, 1]; see the
// internal dataset package.
type Dataset = dataset.Dataset

// Memoized wraps a Dataset with a cached exact mean.
type Memoized = dataset.Memoized

// Dataset constructors (paper §VI workloads).
func NewUniformDataset(n, d int, seed uint64) Dataset   { return dataset.NewUniform(n, d, seed) }
func NewGaussianDataset(n, d int, seed uint64) Dataset  { return dataset.NewGaussian(n, d, seed) }
func NewPoissonDataset(n, d int, seed uint64) Dataset   { return dataset.NewPoisson(n, d, seed) }
func NewCOV19LikeDataset(n, d int, seed uint64) Dataset { return dataset.NewCOV19Like(n, d, seed) }

// Memoize caches a dataset's exact mean across uses.
func Memoize(ds Dataset) *Memoized { return dataset.Memoize(ds) }

// TrueMean streams ds once and returns its exact per-dimension mean.
func TrueMean(ds Dataset) []float64 { return dataset.TrueMean(ds, 0) }

// Protocol, Client, Aggregator and Report form the high-dimensional
// collection protocol (§III-B): m of d dimensions per user at ε/m each.
type (
	Protocol   = highdim.Protocol
	Client     = highdim.Client
	Aggregator = highdim.Aggregator
	Report     = highdim.Report
)

// NewProtocol validates and returns a protocol configuration.
func NewProtocol(mech Mechanism, eps float64, d, m int) (Protocol, error) {
	return highdim.NewProtocol(mech, eps, d, m)
}

// NewClient returns a user-side perturber.
func NewClient(p Protocol, rng *RNG) *Client { return highdim.NewClient(p, rng) }

// NewAggregator returns an empty collector for p.
func NewAggregator(p Protocol) *Aggregator { return highdim.NewAggregator(p) }

// Allocation assigns per-dimension budgets (the §II-B importance-aware
// extension); see internal/highdim for the privacy constraint.
type Allocation = highdim.Allocation

// UniformAllocation is the paper's ε/m split.
func UniformAllocation(eps float64, d, m int) Allocation {
	return highdim.UniformAllocation(eps, d, m)
}

// OptimalMSEAllocation distributes budget as εⱼ ∝ wⱼ^{1/3}, the
// weighted-MSE optimum.
func OptimalMSEAllocation(eps float64, weights []float64, m int) (Allocation, error) {
	return highdim.OptimalMSEAllocation(eps, weights, m)
}

// WeightedMSE is the importance-weighted error metric the allocators target.
func WeightedMSE(est, truth, weights []float64) float64 {
	return metrics.WeightedMSE(est, truth, weights)
}

// Framework evaluates the paper's §IV analytical framework; Deviation is
// the per-dimension Gaussian of θ̂ⱼ − θ̄ⱼ, JointDeviation the Theorem 1
// product law, DataSpec the Lemma 3 data model.
type (
	Framework      = analysis.Framework
	Deviation      = analysis.Deviation
	JointDeviation = analysis.JointDeviation
	DataSpec       = analysis.DataSpec
	TableIIRow     = analysis.TableIIRow
)

// NewFramework returns the framework for one mechanism at per-dimension
// budget ε/m and expected per-dimension report count r.
func NewFramework(mech Mechanism, epsPerDim, r float64) Framework {
	return Framework{Mech: mech, EpsPerDim: epsPerDim, R: r}
}

// Homogeneous builds the Theorem 1 joint law with d identical coordinates.
func Homogeneous(d int, dev Deviation) JointDeviation { return analysis.Homogeneous(d, dev) }

// SpecFromSamples discretizes continuous samples into a k-atom DataSpec.
func SpecFromSamples(samples []float64, k int) DataSpec {
	return analysis.SpecFromSamples(samples, k)
}

// SpecFromCounts builds a DataSpec from discrete observations.
func SpecFromCounts(col []float64) DataSpec { return analysis.SpecFromCounts(col) }

// UniformSpec builds a DataSpec putting equal mass on each value — the
// uninformative prior collectors use when no pilot data exists.
func UniformSpec(values ...float64) DataSpec { return analysis.UniformSpec(values...) }

// UniformGridSpec is the canonical uninformative prior: k atoms evenly
// spaced across [−1, 1] with equal mass (k ≥ 2; anything less cannot span
// the domain and panics). The collector-side enhancement paths use the
// 21-atom instance.
func UniformGridSpec(k int) DataSpec { return analysis.UniformGridSpec(k) }

// CaseStudySpec returns the §IV-C case-study data model.
func CaseStudySpec() DataSpec { return analysis.CaseStudySpec() }

// BerryEsseen returns the Theorem 2 approximation-error bound.
func BerryEsseen(rho, s, r float64) float64 { return analysis.BerryEsseen(rho, s, r) }

// CaseStudyTableII evaluates the §IV-C benchmark (Table II) analytically.
func CaseStudyTableII() []TableIIRow { return analysis.NewCaseStudy().TableII() }

// Reg selects HDR4ME's regularizer; EnhanceConfig parameterizes it.
type (
	Reg           = recal.Reg
	EnhanceConfig = recal.Config
)

// Regularizer flavors.
const (
	RegNone = recal.RegNone
	RegL1   = recal.RegL1
	RegL2   = recal.RegL2
)

// DefaultEnhanceConfig returns the paper configuration for reg.
func DefaultEnhanceConfig(reg Reg) EnhanceConfig { return recal.DefaultConfig(reg) }

// Enhance applies HDR4ME to a naive estimate given per-dimension framework
// deviations (len 1 = shared across dimensions).
func Enhance(est []float64, devs []Deviation, cfg EnhanceConfig) []float64 {
	return recal.Enhance(est, devs, cfg)
}

// ShouldEnhance is the pre-flight check: true when the Theorem 3/4 lower
// bound on HDR4ME improving the aggregation reaches minProb.
func ShouldEnhance(joint JointDeviation, reg Reg, minProb float64) bool {
	return recal.ShouldEnhance(joint, reg, minProb)
}

// EnhanceWithFramework is the one-call collector pipeline: it derives the
// Lemma 2/3 deviations for protocol p — sampling up to 1,000 users of ds to
// build the per-dimension data specs when the mechanism is bounded — and
// re-calibrates est with cfg.
func EnhanceWithFramework(p Protocol, ds Dataset, est []float64, cfg EnhanceConfig) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	fw := NewFramework(p.Mech, p.EpsPerDim(), p.ExpectedReports(ds.NumUsers()))
	var devs []Deviation
	if !p.Mech.Bounded() {
		devs = []Deviation{fw.Deviation(nil)}
	} else {
		users := ds.NumUsers()
		if users > 1000 {
			users = 1000
		}
		d := ds.Dim()
		cols := make([][]float64, d)
		for j := range cols {
			cols[j] = make([]float64, users)
		}
		row := make([]float64, d)
		for i := 0; i < users; i++ {
			ds.Row(i, row)
			for j, v := range row {
				cols[j][i] = v
			}
		}
		devs = make([]Deviation, d)
		for j := range devs {
			spec := analysis.SpecFromSamples(cols[j], 10)
			devs[j] = fw.Deviation(&spec)
		}
	}
	return recal.Enhance(est, devs, cfg), nil
}

// MSE is the paper's Eq. 3 utility metric; L2Deviation its Eq. 2 form.
func MSE(est, truth []float64) float64         { return metrics.MSE(est, truth) }
func L2Deviation(est, truth []float64) float64 { return metrics.L2Deviation(est, truth) }

// Frequency estimation (§V-C): categorical dimensions are histogram-encoded
// and reduced to mean estimation, so the framework and HDR4ME apply.
type (
	CatDataset     = freq.CatDataset
	FreqProtocol   = freq.Protocol
	FreqAggregator = freq.Aggregator
)

// NewZipfCatDataset returns a synthetic categorical dataset with Zipf-like
// category popularity (exponent s).
func NewZipfCatDataset(n int, cards []int, s float64, seed uint64) CatDataset {
	return freq.NewZipfCat(n, cards, s, seed)
}

// NewUniformCatDataset returns a flat categorical dataset.
func NewUniformCatDataset(n int, cards []int, seed uint64) CatDataset {
	return freq.NewUniformCat(n, cards, seed)
}

// TrueFreqs streams ds and returns the exact per-dimension frequencies.
func TrueFreqs(ds CatDataset) [][]float64 { return freq.TrueFreqs(ds) }

// ProjectSimplex clips and renormalizes frequency estimates per dimension.
func ProjectSimplex(freqs [][]float64) [][]float64 { return freq.ProjectSimplex(freqs) }

// EMS is Li et al.'s Expectation–Maximization-with-Smoothing estimator for
// reconstructing a full input distribution from Square Wave reports.
type EMS = dist.EMS

// EMSResult is the reconstruction outcome.
type EMSResult = dist.Result

// NewEMS returns an EMS estimator with the reference defaults.
func NewEMS(eps float64) *EMS { return dist.NewEMS(eps) }

// DuchiMD is Duchi et al.'s whole-tuple multidimensional mechanism.
type DuchiMD = highdim.DuchiMD

// NewDuchiMD validates and returns the multidimensional mechanism.
func NewDuchiMD(d int, eps float64) (DuchiMD, error) { return highdim.NewDuchiMD(d, eps) }

// CollectorServer is a TCP collector; CollectorClient its network client;
// BufferedCollectorClient the auto-batching submitter that rides the BATCH
// wire frame (one syscall + ack round-trip per batch instead of per
// report).
type (
	CollectorServer         = transport.Server
	CollectorClient         = transport.Client
	BufferedCollectorClient = transport.BufferedClient
)

// Buffered-collector options (batch size, flush interval).
type BufferOption = transport.BufferOption

// WithBatchSize sets how many reports a BufferedCollectorClient
// accumulates before shipping one BATCH frame (default 256).
func WithBatchSize(n int) BufferOption { return transport.WithBatchSize(n) }

// WithFlushInterval bounds how long a report may sit buffered before the
// batch ships even if short.
func WithFlushInterval(d time.Duration) BufferOption { return transport.WithFlushInterval(d) }

// WithQueryName routes a BufferedCollectorClient's batches to the named
// query of a multi-query collector (default: the collector's default
// query).
func WithQueryName(name string) BufferOption { return transport.WithQueryName(name) }

// WithReconnect turns on a BufferedCollectorClient's automatic
// reconnection with exactly-once batch replay: the client opens a replay
// session (HELLO frame), numbers every batch, and after a transport
// failure redials, resumes the session, and re-ships exactly the batches
// the collector has not applied. redial may be nil when the client comes
// from DialCollectorBuffered, which then redials the original address.
func WithReconnect(redial func() (*CollectorClient, error)) BufferOption {
	return transport.WithReconnect(redial)
}

// WithReconnectLimit caps consecutive failed recovery attempts (redials,
// shed-retry rounds) before a BufferedCollectorClient gives up (default 8).
func WithReconnectLimit(n int) BufferOption { return transport.WithReconnectLimit(n) }

// Wire protocol versions a collector client can pin with
// WithProtocolVersion.
const (
	ProtocolV1 = transport.ProtocolV1 // legacy row-oriented BATCH frames
	ProtocolV2 = transport.ProtocolV2 // columnar CBATCH frames, negotiated on HELLO
)

// WithProtocolVersion pins a BufferedCollectorClient's wire protocol:
// ProtocolV1 forces the legacy row-oriented grammar (no negotiation),
// ProtocolV2 requires the columnar CBATCH grammar and fails against a
// collector that cannot negotiate it. By default the protocol is
// negotiated whenever the client performs a HELLO (so WithReconnect
// pipelines upgrade to v2 automatically) and stays v1 otherwise.
func WithProtocolVersion(v int) BufferOption {
	return transport.WithClientOptions(transport.WithProtocolVersion(v))
}

// CollectorStats is a CollectorServer's failure-and-recovery counter
// snapshot (shed connections, tripped deadlines, shed and deduplicated
// batches, replay sessions), from CollectorServer.Stats.
type CollectorStats = transport.ServerStats

// ErrCollectorOverloaded is returned by collector clients when the
// collector sheds their connection or batch under overload; the request
// was not processed and may be retried after a backoff.
var ErrCollectorOverloaded = transport.ErrOverloaded

// NewCollectorServer wraps a mean-family aggregator in a TCP collector.
// NewEstimatorServer is the generalization serving a Session's core of
// any family (and the ENHANCED frame where supported).
func NewCollectorServer(agg *Aggregator) *CollectorServer { return transport.NewServer(agg) }

// CollectorClientOption configures a plain CollectorClient at dial time.
type CollectorClientOption = transport.ClientOption

// WithClientProtocolVersion is WithProtocolVersion for plain
// CollectorClients (DialCollector, DialCollectorContext): ProtocolV1
// forces the legacy grammar, ProtocolV2 requires CBATCH and negotiates
// it before the first batch, and by default the client stays v1 until a
// HELLO negotiates otherwise.
func WithClientProtocolVersion(v int) CollectorClientOption {
	return transport.WithProtocolVersion(v)
}

// DialCollector connects to a collector at addr.
func DialCollector(addr string, opts ...CollectorClientOption) (*CollectorClient, error) {
	return transport.Dial(addr, opts...)
}

// DialCollectorBuffered connects to a collector at addr with an
// auto-batching client — the high-throughput submission path.
func DialCollectorBuffered(addr string, opts ...BufferOption) (*BufferedCollectorClient, error) {
	return transport.DialBuffered(addr, opts...)
}
