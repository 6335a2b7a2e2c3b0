// Package est defines the estimator abstraction every collection pipeline
// in this repository plugs into: mean estimation under dimension sampling
// (§III-B), Duchi et al.'s whole-tuple mechanism, and the §V-C frequency
// reducer all implement the same Estimator interface, so the transport
// layer, the Session facade and future backends compose with any of them.
//
// The contract is collector-shaped: an Estimator ingests perturbed reports
// (or perturbs raw tuples itself via Observe), exposes the running naive
// estimate, and supports Snapshot/Merge so shards aggregate independently
// and fold together — the associativity that makes the collector scale
// horizontally.
//
// The contract is implemented once, here. Family (family.go) is the one
// estimator core: striped ingest and lanes, the fold, the naive estimate
// and the reads into a caller's vector, estimates from a snapshot or a
// weighted fold, Snapshot, Rotate, Merge and the one-pass HDR4ME
// estimate. A family package supplies only a Kernel, which checks one
// report against its grammar and folds it into the *Lanes it is handed
// (see stripes.go), and a Calibrator: its MakeReport, its Calibrate from a
// fold to the naive estimate and, to be re-calibrated, its Enhance loop
// over the per-entry deviations. Core is that whole contract; Adapt
// wraps a custom Estimator in it once, so the registry, the server, the
// epoch ring and the Session never probe for optional interfaces.
package est

import (
	"fmt"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Report is one user's wire-level submission. The three estimator families
// interpret the same shape differently:
//
//   - mean (sampling):  Dims lists the sampled dimensions, Values the
//     perturbed value of each (len(Dims) == len(Values)).
//   - whole-tuple:      Dims is empty; Values is the full released tuple.
//   - frequency:        Dims lists the sampled dimensions, Values is the
//     concatenation of each sampled dimension's perturbed one-hot vector
//     (len(Values) == Σ card(j) over Dims).
type Report struct {
	Dims   []uint32
	Values []float64
}

// Tuple is one user's raw (pre-perturbation) record. Numeric estimators
// read Values; the frequency estimator reads Cats. A Tuple never leaves
// the user side: Observe perturbs it before anything is accumulated.
type Tuple struct {
	Values []float64 // numeric tuple in [−1, 1]^d
	Cats   []int     // categorical tuple, Cats[j] ∈ [0, card(j))
}

// Snapshot is a serializable copy of an estimator's accumulated state.
// Snapshots from estimators with identical configuration merge
// associatively: Merge(Snapshot()) on an empty peer reproduces the source.
type Snapshot struct {
	// Kind discriminates the estimator family ("mean", "wholetuple", "freq").
	Kind string
	// Dims is the logical output dimensionality (len of Estimate()).
	Dims int
	// Cards is the per-dimension cardinality (frequency family only).
	Cards []int
	// Sums holds the flattened per-coordinate accumulated sums.
	Sums []float64
	// Counts holds the per-dimension report counts.
	Counts []int64
}

// Estimator is the collector side of one LDP collection pipeline.
// Implementations must be safe for concurrent use: Observe, AddReport,
// Estimate, Counts, Snapshot and Merge may be interleaved from multiple
// goroutines.
type Estimator interface {
	// Kind identifies the estimator family (matches Snapshot.Kind).
	Kind() string

	// Dims returns the length of the Estimate vector.
	Dims() int

	// Observe perturbs one raw tuple with the caller's randomness and
	// accumulates the resulting report. The rng must not be shared with
	// concurrent Observe calls, and must not be retained: the caller may
	// reseed and reuse it once Observe returns.
	Observe(t Tuple, rng *mathx.RNG) error

	// AddReport accumulates one already-perturbed report, rejecting
	// malformed ones without corrupting state.
	AddReport(rep Report) error

	// Estimate returns the running naive estimate.
	Estimate() []float64

	// Counts returns the per-dimension report counts.
	Counts() []int64

	// Snapshot copies the accumulated state for shipping to a peer.
	Snapshot() Snapshot

	// Merge folds a peer snapshot (same family and configuration) in.
	Merge(s Snapshot) error
}

// BatchAdder is implemented by estimators whose accumulation lock can be
// amortized over a whole batch: AddReports validates and accumulates each
// report under one lock acquisition, skipping (not aborting on) malformed
// ones. accepted is how many landed; err carries the first per-report
// rejection for diagnostics and is nil when everything landed. Partial
// success is therefore expressed by accepted < len(reps), not by err —
// callers that treat any non-nil err as total failure must check accepted
// first.
type BatchAdder interface {
	AddReports(reps []Report) (accepted int, err error)
}

// ColumnAdder is implemented by estimators and lanes that can accumulate
// a columnar batch directly: n rectangular reports laid out row-major, so
// report i owns dims[i*ndims:(i+1)*ndims] and vals[i*nvals:(i+1)*nvals].
// It is the accumulation half of the v2 columnar wire frame — decoded
// dimension columns and the contiguous value run land in stripe lanes
// without materializing per-report structures. The return contract is
// BatchAdder's: malformed rows are skipped, accepted counts the rest,
// err carries the first rejection.
type ColumnAdder interface {
	AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (accepted int, err error)
}

// AddColumns bulk-adds a columnar batch through lane l; the layout and
// return contract are ColumnAdder's.
func AddColumns(l Lane, n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	return l.AddColumns(n, ndims, nvals, dims, vals)
}

// CheckColumns validates the shape invariant shared by every ColumnAdder:
// n rectangular rows of (ndims, nvals) must fit inside columns of the
// given lengths. Implementations call it once per batch, hoisting the
// bounds check out of the per-row loop. The fit is tested by division,
// so a shape whose n·ndims or n·nvals overflows int is an error, not a
// wrapped product that passes.
func CheckColumns(n, ndims, nvals, lenDims, lenVals int) error {
	if n < 0 || ndims < 0 || nvals < 0 {
		return fmt.Errorf("est: negative columnar batch shape %d×(%d,%d)", n, ndims, nvals)
	}
	if ndims > 0 && n > lenDims/ndims || nvals > 0 && n > lenVals/nvals {
		return fmt.Errorf("est: columnar batch %d×(%d,%d) exceeds column lengths %d/%d",
			n, ndims, nvals, lenDims, lenVals)
	}
	return nil
}

// Lane is a stripe-bound ingest handle: every report added through one
// Lane accumulates under the same stripe lock, in arrival order, so a
// single caller's stream keeps the serial path's exact floating-point
// association while independent lanes never contend. AddReports and
// AddColumns share BatchAdder's skip-don't-abort contract.
type Lane interface {
	AddReport(rep Report) error
	BatchAdder
	ColumnAdder
}

// AddReports batch-adds into any estimator under the BatchAdder
// contract: through its Core, or one AddReport at a time for a custom
// estimator (see Adapt).
func AddReports(e Estimator, reps []Report) (accepted int, err error) {
	return Adapt(e).AddReports(reps)
}

// AcquireLane returns an ingest lane for e: a striped lane for every
// built-in family, a pass-through for a custom estimator.
func AcquireLane(e Estimator) Lane { return Adapt(e).AcquireLane() }

// Reporter is implemented by estimators whose user-side perturbation can
// run detached from accumulation: MakeReport perturbs one raw tuple into
// the wire-ready report Observe would have accumulated, without touching
// collector state. It is the client half of a remote pipeline — the same
// spec-built estimator perturbs on the user's device and estimates on the
// collector, with only reports crossing the wire.
type Reporter interface {
	// MakeReport perturbs t with the caller's randomness. The rng must not
	// be shared with concurrent MakeReport or Observe calls, and must not
	// be retained past the call (Session reuses it for later reports).
	MakeReport(t Tuple, rng *mathx.RNG) (Report, error)
}

// Rotator is implemented by estimators whose accumulation can be drained
// into a frozen snapshot atomically — the primitive the epoch subsystem
// rotates on. Rotate is Snapshot plus a reset under the same lock hold:
// reports accumulated before the call land in the returned snapshot,
// reports after start the next epoch from zero. Family implements it
// with its Stripes' DrainFold.
type Rotator interface {
	Rotate() Snapshot
}

// Enhancer is implemented by estimators that support the HDR4ME §V
// re-calibration of their naive estimate. The enhancement configuration
// is bound at construction time (Family.SetEnhance).
type Enhancer interface {
	// Enhanced returns the HDR4ME re-calibrated estimate.
	Enhanced() ([]float64, error)
}

// CheckMerge validates the shape invariants shared by every family's Merge.
func CheckMerge(e Estimator, s Snapshot, sums, counts int) error {
	if s.Kind != e.Kind() {
		return fmt.Errorf("est: cannot merge %q snapshot into %q estimator", s.Kind, e.Kind())
	}
	if len(s.Sums) != sums || len(s.Counts) != counts {
		return fmt.Errorf("est: snapshot shape %d/%d, want %d/%d sums/counts",
			len(s.Sums), len(s.Counts), sums, counts)
	}
	return nil
}
