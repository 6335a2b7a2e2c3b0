package hdr4me

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hdr4me/hdr4me/internal/epoch"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/freq"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/recal"
	"github.com/hdr4me/hdr4me/internal/transport"
)

// Estimator is the unified collector abstraction: the estimator core of
// the sampled-dimension mean protocol, the Duchi whole-tuple mechanism
// or the frequency reducer — one family core, or an epoch ring around
// one — which transport servers and sessions serve alike.
type Estimator = est.Core

// Tuple is one user's raw record; numeric estimators read Values, the
// frequency estimator reads Cats.
type Tuple = est.Tuple

// Snapshot is a serializable copy of an estimator's accumulated state;
// snapshots from identically configured estimators Merge associatively.
type Snapshot = est.Snapshot

// Estimator family kinds (Estimator.Kind, Snapshot.Kind).
const (
	KindMean       = highdim.KindMean
	KindWholeTuple = highdim.KindWholeTuple
	KindFreq       = freq.KindFreq
)

// Source is anything Session.Run can ingest in batch: a numeric Dataset
// for the mean and whole-tuple families, or a CatDataset for the
// frequency family.
type Source interface {
	NumUsers() int
}

// Option configures a Session under construction.
type Option func(*sessionConfig) error

type sessionConfig struct {
	mech       Mechanism
	eps        float64
	d, m       int
	cards      []int
	wholeTuple bool
	alloc      *Allocation
	workers    int
	enhance    *EnhanceConfig
	seed       *uint64 // nil: unpredictable, drawn from crypto/rand
	stateDir   string
	ckptEvery  time.Duration

	// Continual-collection knobs (continual.go); epochs is set by any of
	// the epoch options and switches New to wrap the estimator in a ring.
	epochs      bool
	epochDur    time.Duration
	epochEvery  int64
	epochRetain int
	window      int
	decay       float64
	lateness    LatenessPolicy
}

// WithMechanism selects the one-dimensional LDP mechanism (mean and
// frequency families; the whole-tuple family has its own mechanism).
func WithMechanism(m Mechanism) Option {
	return func(c *sessionConfig) error {
		if m == nil {
			return fmt.Errorf("hdr4me: nil mechanism")
		}
		c.mech = m
		return nil
	}
}

// WithBudget sets the total per-user privacy budget ε.
func WithBudget(eps float64) Option {
	return func(c *sessionConfig) error {
		c.eps = eps
		return nil
	}
}

// WithDims sets the tuple dimensionality d and the number of dimensions m
// each user reports (§III-B sampling). The whole-tuple family ignores m;
// the frequency family requires d to match len(cards).
func WithDims(d, m int) Option {
	return func(c *sessionConfig) error {
		c.d, c.m = d, m
		return nil
	}
}

// WithCards switches the session to the frequency family: dimension j is
// categorical with cards[j] categories (§V-C histogram encoding).
func WithCards(cards []int) Option {
	return func(c *sessionConfig) error {
		if len(cards) == 0 {
			return fmt.Errorf("hdr4me: empty cardinality list")
		}
		c.cards = append([]int(nil), cards...)
		return nil
	}
}

// WithWholeTuple switches the session to Duchi et al.'s whole-tuple
// mechanism: every user releases her full d-dimensional tuple in one
// ε-LDP step instead of sampling dimensions.
func WithWholeTuple() Option {
	return func(c *sessionConfig) error {
		c.wholeTuple = true
		return nil
	}
}

// WithAllocation attaches a per-dimension budget allocation (§II-B
// importance-aware extension) to the mean family.
func WithAllocation(alloc Allocation) Option {
	return func(c *sessionConfig) error {
		a := Allocation{Eps: append([]float64(nil), alloc.Eps...)}
		c.alloc = &a
		return nil
	}
}

// WithWorkers sets the parallelism of Session.Run (default 8, clamped to
// the population size).
func WithWorkers(k int) Option {
	return func(c *sessionConfig) error {
		c.workers = k
		return nil
	}
}

// WithEnhance enables collector-side HDR4ME re-calibration: Run results
// carry an Enhanced estimate and EstimateEnhanced serves the streaming
// path (uninformative uniform prior; use EnhanceWithFramework directly
// for data-informed specs).
func WithEnhance(cfg EnhanceConfig) Option {
	return func(c *sessionConfig) error {
		c.enhance = &cfg
		return nil
	}
}

// WithSeed fixes the session's randomness, making every Run, Observe and
// Report reproducible: the simulation mode. Without it a session seeds
// from crypto/rand, so nobody can regenerate its noise; a device that
// perturbs real values must never share its seed.
func WithSeed(seed uint64) Option {
	return func(c *sessionConfig) error {
		c.seed = &seed
		return nil
	}
}

// Session is the unified collection pipeline: one object that batch-
// simulates (Run), ingests streaming traffic (Observe/AddReport), serves
// running estimates, and composes across shards (Snapshot/Merge). Build
// one with New; all methods are safe for concurrent use.
type Session struct {
	cfg sessionConfig
	// fam is the session's family core: it perturbs reports and serves
	// every read.
	fam *est.Family

	// ring wraps fam for continual sessions (any epoch option): ingest
	// routes through it so rotation triggers count reports, while fam
	// serves the live epoch's reads. Nil for one-shot sessions.
	ring *epoch.Ring
	// stopRotate joins the wall-clock rotation ticker (WithEpochDuration).
	stopRotate func()

	// lanes are stripe-bound ingest handles into the estimator's
	// lock-striped accumulator; Observe rotates over them so concurrent
	// observers rarely contend on one stripe lock.
	lanes []est.Lane

	mu    sync.Mutex
	rng   *RNG
	obs   atomic.Uint64 // Observe/Report substream counter; claimed without mu
	epoch uint64        // Run substream counter

	// obsRoot is rng.Child(obsStream), built once: Observe and Report
	// reseed to its children. It is never drawn from, so it is read
	// without mu.
	obsRoot *RNG

	// Background checkpointer state (WithCheckpointInterval). ckptMu
	// serializes checkpoint writes (periodic, on-demand, final) and the
	// restore: each save folds then renames under the lock, so the
	// checkpoint file always holds the newest fold — a slow earlier
	// write can never rename over a later one. restorePending holds the
	// periodic writer off while a previous run's checkpoint exists that
	// the caller has not yet restored (or refused): an early tick must
	// never overwrite restorable state with a near-empty fold.
	ckptMu         sync.Mutex
	stopCkpt       func()
	restorePending atomic.Bool
	closeOnce      sync.Once
	closeErr       error
}

// sessionLanes is how many accumulation stripes a session spreads its
// Observe traffic over (half the family default of est.DefaultStripeCount,
// leaving stripes free for wire connections sharing the estimator).
const sessionLanes = 8

// New builds a Session from functional options. The estimator family is
// selected by the options: WithCards → frequency, WithWholeTuple →
// whole-tuple, otherwise the §III-B sampled-dimension mean protocol.
//
//	s, err := hdr4me.New(
//		hdr4me.WithMechanism(hdr4me.Piecewise()),
//		hdr4me.WithBudget(0.8),
//		hdr4me.WithDims(200, 200),
//		hdr4me.WithEnhance(hdr4me.DefaultEnhanceConfig(hdr4me.RegL1)),
//	)
func New(opts ...Option) (*Session, error) {
	var cfg sessionConfig
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.wholeTuple && cfg.cards != nil {
		return nil, fmt.Errorf("hdr4me: WithWholeTuple and WithCards are mutually exclusive")
	}
	if cfg.alloc != nil && (cfg.wholeTuple || cfg.cards != nil) {
		return nil, fmt.Errorf("hdr4me: WithAllocation applies only to the sampled-dimension mean family")
	}
	fam, err := buildEstimator(&cfg)
	if err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg, fam: fam, rng: NewRNG(sessionSeed(cfg.seed))}
	s.obsRoot = s.rng.Child(obsStream)
	if cfg.epochs {
		if s.ring, err = s.buildRing(); err != nil {
			return nil, err
		}
	}
	// Striped ingest for Observe: reports are perturbed outside any lock,
	// then land on stripe lanes of the ingest surface, so report-count
	// rotation triggers see every one.
	s.lanes = make([]est.Lane, sessionLanes)
	for i := range s.lanes {
		s.lanes[i] = s.ingestEst().AcquireLane()
	}
	if cfg.epochDur > 0 {
		s.stopRotate = StartCheckpointer(cfg.epochDur, func() error {
			s.ring.Rotate()
			return nil
		}, nil)
	}
	if cfg.stateDir != "" {
		// Fail fast: durability needs a serializable spec (no
		// per-dimension allocations) — see checkpointSpec.
		if _, err := s.checkpointSpec(); err != nil {
			return nil, err
		}
	}
	if cfg.ckptEvery > 0 {
		if cfg.stateDir == "" {
			return nil, fmt.Errorf("hdr4me: WithCheckpointInterval requires WithStateDir")
		}
		// A checkpoint from a previous run must be restored (or refused)
		// before the periodic writer may touch the file — otherwise a
		// short interval could overwrite restorable state with this
		// fresh session's near-empty fold before the caller gets to
		// RestoreCheckpoint.
		if _, err := os.Stat(filepath.Join(cfg.stateDir, persistFileName)); err == nil {
			s.restorePending.Store(true)
		}
		// Periodic saves hold off while a previous run's checkpoint
		// awaits its RestoreCheckpoint decision; the last save error
		// (periodic or final) surfaces through Close.
		s.stopCkpt = StartCheckpointer(cfg.ckptEvery, func() error {
			if s.restorePending.Load() {
				return nil
			}
			return s.SaveCheckpoint()
		}, func(err error) {
			s.mu.Lock()
			s.closeErr = err
			s.mu.Unlock()
		})
	}
	return s, nil
}

// sessionSeed returns the WithSeed seed, or a fresh one from crypto/rand.
func sessionSeed(seed *uint64) uint64 {
	if seed != nil {
		return *seed
	}
	var b [8]byte
	rand.Read(b[:]) // never fails: crypto/rand aborts the program instead
	return binary.LittleEndian.Uint64(b[:])
}

// Close stops the background checkpointer started by
// WithCheckpointInterval, writes one final checkpoint, and returns the
// last checkpoint error (periodic or final). Sessions without a
// checkpoint interval have no background work: Close is a nil no-op.
// Close is idempotent; the session itself stays usable (only the
// periodic persistence stops).
func (s *Session) Close() error {
	if s.stopRotate != nil {
		s.stopRotate() // idempotent; joins the epoch ticker
	}
	if s.stopCkpt == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		s.stopCkpt()
		if err := s.SaveCheckpoint(); err != nil {
			s.mu.Lock()
			s.closeErr = err
			s.mu.Unlock()
		}
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeErr
}

// buildEstimator is the family-construction core shared by Session and
// the query-registry factory: one resolved configuration in, one fresh
// family core out. Run builds one per worker, so shards accumulate
// lock-free and Merge at the end — the same composition path
// distributed collectors use.
func buildEstimator(c *sessionConfig) (*est.Family, error) {
	switch {
	case c.wholeTuple:
		md, err := highdim.NewDuchiMD(c.d, c.eps)
		if err != nil {
			return nil, err
		}
		agg, err := highdim.NewMDAggregator(md)
		if err != nil {
			return nil, err
		}
		return agg.Family, nil
	case c.cards != nil:
		if c.d != 0 && c.d != len(c.cards) {
			return nil, fmt.Errorf("hdr4me: WithDims d=%d disagrees with %d cardinalities", c.d, len(c.cards))
		}
		m := c.m
		if m <= 0 {
			m = len(c.cards)
		}
		fp := freq.Protocol{Mech: c.mech, Eps: c.eps, Cards: c.cards, M: m}
		var rc recal.Config
		if c.enhance != nil {
			rc = *c.enhance
		}
		f, err := freq.NewFlat(fp, rc)
		if err != nil {
			return nil, err
		}
		return f.Family, nil
	default:
		m := c.m
		if m <= 0 {
			m = c.d
		}
		p, err := highdim.NewProtocol(c.mech, c.eps, c.d, m)
		if err != nil {
			return nil, err
		}
		var agg *highdim.Aggregator
		if c.alloc != nil {
			agg, err = highdim.NewAllocatedAggregator(p, *c.alloc)
			if err != nil {
				return nil, err
			}
		} else {
			agg = highdim.NewAggregator(p)
		}
		if c.enhance != nil {
			agg.SetEnhance(*c.enhance)
		}
		return agg.Family, nil
	}
}

// Estimator exposes the session's family core, e.g. for serving it over
// TCP with NewEstimatorServer.
func (s *Session) Estimator() Estimator { return s.fam }

// Kind returns the estimator family ("mean", "wholetuple", "freq").
func (s *Session) Kind() string { return s.fam.Kind() }

// Observe perturbs one raw tuple user-side with the session's randomness
// and accumulates the resulting report. Safe for concurrent use: each call
// claims its own deterministic substream with one atomic add and perturbs
// without a lock, so concurrent observers do not serialize on the mechanism —
// and accumulation rotates deterministically over stripe lanes of the
// lock-striped estimator, so concurrent observers rarely contend on the
// accumulation lock either. The rotation is a pure function of the
// observation counter, so a fixed seed still yields a fixed estimate.
func (s *Session) Observe(t Tuple) error {
	rng, idx := s.obsRNG()
	defer obsRNGs.Put(rng)
	rep, err := s.fam.MakeReport(t, rng)
	if err != nil {
		return err
	}
	return s.lanes[idx%uint64(len(s.lanes))].AddReport(rep)
}

// ingestEst is where ingest surfaces accumulate: the epoch ring for a
// continual session (so rotation triggers count every report), the
// estimator itself otherwise.
func (s *Session) ingestEst() est.Core {
	if s.ring != nil {
		return s.ring
	}
	return s.fam
}

// Report perturbs one raw tuple with the session's randomness and returns
// the wire-ready report WITHOUT accumulating it — the user-device half of
// a remote pipeline. Build the session from the collector's QuerySpec
// (NewFromSpec) and ship the reports over a CollectorClient; the
// collector's identically-spec'd estimator aggregates them. Safe for
// concurrent use, exactly as Observe.
func (s *Session) Report(t Tuple) (Report, error) {
	rng, _ := s.obsRNG()
	defer obsRNGs.Put(rng)
	return s.fam.MakeReport(t, rng)
}

// obsRNGs recycles the per-call RNGs of Observe and Report: each call
// reseeds one to its substream instead of allocating a fresh Child.
var obsRNGs = sync.Pool{New: func() any { return NewRNG(0) }}

// obsRNG claims the next Observe/Report substream index and returns a
// pooled RNG reseeded to that substream — the stream s.obsRoot.Child(idx)
// would produce. The caller returns it to obsRNGs once the call has
// finished drawing from it.
func (s *Session) obsRNG() (rng *RNG, idx uint64) {
	idx = s.obs.Add(1) - 1
	rng = obsRNGs.Get().(*RNG)
	rng.Reseed(s.obsRoot.ChildSeed(idx))
	return rng, idx
}

// Substream namespaces, so Observe and Run never share a child stream.
const (
	obsStream = 0x0b5e0000
	runStream = 0x52000000
)

// AddReport accumulates one already-perturbed report (streaming ingestion
// from the wire). Safe for concurrent use.
func (s *Session) AddReport(rep Report) error { return s.ingestEst().AddReport(rep) }

// AddReports accumulates a batch of already-perturbed reports through the
// estimator's batched ingest path: the whole batch lands under one
// stripe-lock acquisition instead of one per report. Malformed reports
// are skipped, not fatal — accepted counts the rest, and err carries the
// first rejection for diagnostics.
func (s *Session) AddReports(reps []Report) (accepted int, err error) {
	return s.ingestEst().AddReports(reps)
}

// Estimate returns the running naive estimate.
func (s *Session) Estimate() []float64 { return s.fam.Estimate() }

// EstimateEnhanced returns the running HDR4ME re-calibrated estimate, or
// an error for families without an enhancement path (whole-tuple).
func (s *Session) EstimateEnhanced() ([]float64, error) { return s.fam.Enhanced() }

// EstimateEnhancedWith re-calibrates the current naive estimate under an
// alternative enhancement configuration — the same accumulated reports,
// different collector-side post-processing (e.g. comparing guarded vs
// always-on without re-running the collection).
func (s *Session) EstimateEnhancedWith(cfg EnhanceConfig) ([]float64, error) {
	return s.fam.EnhancedWith(cfg)
}

// Counts returns the per-dimension report counts.
func (s *Session) Counts() []int64 { return s.fam.Counts() }

// Snapshot copies the accumulated state for shipping to a peer collector.
func (s *Session) Snapshot() Snapshot { return s.fam.Snapshot() }

// Merge folds a peer collector's snapshot (same family and configuration)
// into this session.
func (s *Session) Merge(snap Snapshot) error { return s.fam.Merge(snap) }

// PushSnapshot ships this session's snapshot to a parent collector server
// at addr over the MERGE wire frame: the leaf-to-root direction of a shard
// tree. The parent folds it in associatively; no reports are replayed.
// The exchange is unbounded in time; use PushSnapshotContext against
// peers that may hang.
func (s *Session) PushSnapshot(addr string) error {
	return s.PushSnapshotContext(context.Background(), addr)
}

// PushSnapshotContext is PushSnapshot bound to a context: both the dial
// and the snapshot exchange abort when ctx expires or is cancelled, so an
// unresponsive parent collector cannot hang the shard forever.
func (s *Session) PushSnapshotContext(ctx context.Context, addr string) error {
	cl, err := transport.DialContext(ctx, addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	return cl.PushSnapshotContext(ctx, s.Snapshot())
}

// PullSnapshot fetches a leaf collector server's snapshot from addr over
// the SNAPSHOT wire frame and folds it into this session: the root-driven
// direction of a shard tree. The exchange is unbounded in time; use
// PullSnapshotContext against peers that may hang.
func (s *Session) PullSnapshot(addr string) error {
	return s.PullSnapshotContext(context.Background(), addr)
}

// PullSnapshotContext is PullSnapshot bound to a context, exactly as
// PushSnapshotContext.
func (s *Session) PullSnapshotContext(ctx context.Context, addr string) error {
	cl, err := transport.DialContext(ctx, addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	snap, err := cl.PullSnapshotContext(ctx)
	if err != nil {
		return err
	}
	return s.Merge(snap)
}

// Freqs reshapes a flattened frequency-family estimate into per-dimension
// frequency vectors (feed the result to ProjectSimplex).
func (s *Session) Freqs(flat []float64) ([][]float64, error) {
	if s.fam.Kind() != KindFreq {
		return nil, fmt.Errorf("hdr4me: Freqs is only available on the frequency family, not %s", s.fam.Kind())
	}
	return s.fam.Unflatten(flat)
}

// Result is the outcome of one Session.Run collection round.
type Result struct {
	// Naive is the calibrated naive aggregation θ̂.
	Naive []float64
	// Enhanced is the HDR4ME re-calibration of Naive; nil unless the
	// session was built WithEnhance (or the family has no enhancement).
	Enhanced []float64
	// Counts is the per-dimension report count.
	Counts []int64
}

// Run executes one full collection round over src, splitting the
// population across the session's workers. Each worker accumulates into
// its own shard estimator and the shards Merge into the session at the
// end, so Run composes with streaming traffic arriving concurrently.
// Cancelling ctx aborts promptly with ctx.Err(); no shard is merged, so
// the session state is untouched.
//
// The mean and whole-tuple families ingest a Dataset; the frequency
// family ingests a CatDataset.
func (s *Session) Run(ctx context.Context, src Source) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("hdr4me: nil source")
	}
	var rows est.Rows
	if s.fam.Kind() == KindFreq {
		cds, ok := src.(CatDataset)
		if !ok {
			return nil, fmt.Errorf("hdr4me: frequency session needs a CatDataset source, have %T", src)
		}
		rows = est.CatRows(cds)
	} else {
		ds, ok := src.(Dataset)
		if !ok {
			return nil, fmt.Errorf("hdr4me: %s session needs a Dataset source, have %T", s.fam.Kind(), src)
		}
		rows = est.ValueRows(ds)
	}

	s.mu.Lock()
	runRNG := s.rng.Child(runStream).Child(s.epoch)
	s.epoch++
	s.mu.Unlock()

	// Each worker gets its own shard, merged into the session at the end
	// (no lock contention on the hot path).
	shard := func() (est.Estimator, error) { return buildEstimator(&s.cfg) }
	if err := est.Round(ctx, s.fam, src.NumUsers(), s.cfg.workers, runRNG, shard, rows); err != nil {
		return nil, err
	}

	// Build the Result from one fold so Naive, Counts and Enhanced
	// describe the same instant even when streaming traffic keeps
	// arriving during and after the merge.
	f := est.GetScratch()
	defer est.PutScratch(f)
	s.fam.SnapshotInto(f)
	res := &Result{Counts: s.fam.CountsFromInto(nil, f.Counts)}
	var err error
	if res.Naive, err = s.fam.EstimateFromInto(nil, *f); err != nil {
		return nil, err
	}
	if s.cfg.enhance != nil && s.fam.Enhances() {
		if res.Enhanced, err = s.fam.EnhancedFromInto(nil, *f); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// NewEstimatorServer wraps a Session's estimator core (Estimator, or
// ServingEstimator for a continual session) in a TCP collector. Unlike
// NewCollectorServer it serves every estimator family and, when the
// family supports enhancement, the ENHANCED frame.
func NewEstimatorServer(e Estimator) *CollectorServer {
	return transport.NewServer(e)
}
