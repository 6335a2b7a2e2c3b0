// Package epoch adds continual collection on top of the one-shot
// estimator families: a Ring wraps any rotatable estimator and slices
// its accumulation into epochs — the live epoch accumulates in the
// wrapped estimator's stripe lanes exactly as before (the ingest hot
// path is untouched), and a rotation drain-folds those lanes into a
// bounded ring of frozen per-epoch snapshots.
//
// Three read paths derive from the ring without ever blocking ingest:
//
//   - current-epoch: the wrapped estimator's ordinary Estimate/Snapshot,
//     which after a rotation covers only reports since that rotation;
//   - sliding-window: WindowSnapshot/WindowEstimate fold the live epoch
//     plus the last W−1 frozen epochs (int64 counts add exactly, float
//     sums add plainly — oldest epoch first, then the live epoch, a
//     fixed order so the fold is deterministic);
//   - decayed: DecayedEstimate folds every retained epoch with weight
//     γ^age (live epoch age 0), producing real-valued effective counts
//     fed through the family's WeightedEstimator.
//
// Rotation triggers are the caller's: call Rotate from a wall-clock
// ticker, or construct the Ring with Every > 0 to rotate after that many
// accepted reports (counted with one atomic add per batch — no
// allocation, no lock on the ingest path).
//
// Late reports carry the epoch id they belong to (the EPOCH wire frame);
// AddLate buckets them per the ring's lateness Policy. The ring is
// bounded: Retain caps the frozen epochs kept, older snapshots are
// compacted away (their ids remain implied by Cur), so checkpoints stop
// growing without bound.
package epoch

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Policy says what happens to a report tagged with an epoch that is no
// longer the live one.
type Policy int

const (
	// Bucket (default): fold the late report into its frozen epoch when
	// that epoch is still retained, reject it when it has been compacted
	// away. Windowed reads issued after the fold include the report.
	Bucket Policy = iota
	// Reject: refuse every report not tagged with the live epoch.
	Reject
	// Current: fold late reports into the live epoch — the "better
	// counted late than dropped" policy; per-epoch attribution is lost.
	Current
)

// String returns the policy name used by flags and docs.
func (p Policy) String() string {
	switch p {
	case Bucket:
		return "bucket"
	case Reject:
		return "reject"
	case Current:
		return "current"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses a policy name (the -lateness flag values).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "bucket":
		return Bucket, nil
	case "reject":
		return Reject, nil
	case "current":
		return Current, nil
	}
	return 0, fmt.Errorf("epoch: unknown lateness policy %q (want bucket, reject or current)", s)
}

// DefaultRetain is how many frozen epochs a Ring keeps when the caller
// does not say: enough for a 16-epoch sliding window plus the live epoch.
const DefaultRetain = 16

// Config bundles the ring knobs shared by the facade and the registry.
type Config struct {
	// Every rotates after this many accepted reports (0: only explicit
	// Rotate calls — e.g. a wall-clock ticker — rotate).
	Every int64
	// Retain caps the frozen epochs kept (<1 selects DefaultRetain).
	Retain int
	// Lateness picks the late-report policy (zero value: Bucket).
	Lateness Policy
}

// Entry is one frozen epoch of the ring: the epoch's id and the
// snapshot its rotation drained.
type Entry struct {
	ID   uint64
	Snap est.Snapshot
}

// Ring wraps a rotatable estimator with an epoch ring. It implements
// est.Estimator (plus BatchAdder/LaneProvider) by delegating to the
// wrapped estimator, so a Ring registers, serves and checkpoints exactly
// like the estimator it wraps — Snapshot/Estimate/Counts cover the LIVE
// epoch only; the frozen epochs are read through the Window/Decayed
// paths and persisted through State. Safe for concurrent use.
type Ring struct {
	inner   est.Estimator
	rot     est.Rotator // inner, asserted once at construction
	scratch est.Estimator
	cfg     Config

	pending atomic.Int64 // reports accepted since the last rotation

	mu      sync.Mutex
	cur     uint64  // live epoch id
	entries []Entry // frozen epochs, oldest first, ≤ cfg.Retain
}

// New wraps inner (and scratch, an identically configured sibling used
// to validate and fold late reports under the Bucket policy) in an epoch
// ring. inner must implement est.Rotator and est.SnapshotEstimator;
// scratch must implement est.Rotator and may be nil when cfg.Lateness is
// not Bucket.
func New(inner, scratch est.Estimator, cfg Config) (*Ring, error) {
	rot, ok := inner.(est.Rotator)
	if !ok {
		return nil, fmt.Errorf("epoch: %T cannot rotate (no est.Rotator)", inner)
	}
	if _, ok := inner.(est.SnapshotEstimator); !ok {
		return nil, fmt.Errorf("epoch: %T cannot estimate from a fold (no est.SnapshotEstimator)", inner)
	}
	if cfg.Lateness == Bucket {
		if scratch == nil {
			return nil, fmt.Errorf("epoch: Bucket lateness policy needs a scratch estimator")
		}
		if _, ok := scratch.(est.Rotator); !ok {
			return nil, fmt.Errorf("epoch: scratch %T cannot rotate (no est.Rotator)", scratch)
		}
	}
	if cfg.Retain < 1 {
		cfg.Retain = DefaultRetain
	}
	if cfg.Every < 0 {
		return nil, fmt.Errorf("epoch: negative report-count trigger %d", cfg.Every)
	}
	return &Ring{inner: inner, rot: rot, scratch: scratch, cfg: cfg}, nil
}

// Inner returns the wrapped estimator.
func (r *Ring) Inner() est.Estimator { return r.inner }

// Config returns the ring's configuration.
func (r *Ring) Config() Config { return r.cfg }

// ---- est.Estimator by delegation (live epoch) -------------------------------

// Kind implements est.Estimator.
func (r *Ring) Kind() string { return r.inner.Kind() }

// Dims implements est.Estimator.
func (r *Ring) Dims() int { return r.inner.Dims() }

// Observe implements est.Estimator against the live epoch.
func (r *Ring) Observe(t est.Tuple, rng *mathx.RNG) error {
	if err := r.inner.Observe(t, rng); err != nil {
		return err
	}
	r.tick(1)
	return nil
}

// AddReport implements est.Estimator against the live epoch.
func (r *Ring) AddReport(rep est.Report) error {
	if err := r.inner.AddReport(rep); err != nil {
		return err
	}
	r.tick(1)
	return nil
}

// AddReports implements est.BatchAdder against the live epoch.
func (r *Ring) AddReports(reps []est.Report) (int, error) {
	accepted, err := est.AddReports(r.inner, reps)
	r.tick(int64(accepted))
	return accepted, err
}

// Estimate implements est.Estimator: the live epoch's estimate.
func (r *Ring) Estimate() []float64 { return r.inner.Estimate() }

// Counts implements est.Estimator: the live epoch's counts.
func (r *Ring) Counts() []int64 { return r.inner.Counts() }

// Snapshot implements est.Estimator: the live epoch's accumulation. The
// frozen epochs are read through State and the Window/Decayed paths.
func (r *Ring) Snapshot() est.Snapshot { return r.inner.Snapshot() }

// Merge implements est.Estimator: peer snapshots fold into the live epoch.
func (r *Ring) Merge(s est.Snapshot) error { return r.inner.Merge(s) }

// Enhanced implements est.Enhancer when the wrapped estimator does.
func (r *Ring) Enhanced() ([]float64, error) {
	if en, ok := r.inner.(est.Enhancer); ok {
		return en.Enhanced()
	}
	return nil, fmt.Errorf("epoch: %T has no enhanced estimate", r.inner)
}

// AcquireLane implements est.LaneProvider: the returned lane accumulates
// into the live epoch under one stripe of the wrapped estimator and
// counts accepted reports toward the report-count rotation trigger with
// one atomic add per call — nothing else rides the hot path.
func (r *Ring) AcquireLane() est.Lane {
	return ringLane{r: r, lane: est.AcquireLane(r.inner)}
}

type ringLane struct {
	r    *Ring
	lane est.Lane
}

func (l ringLane) AddReport(rep est.Report) error {
	if err := l.lane.AddReport(rep); err != nil {
		return err
	}
	l.r.tick(1)
	return nil
}

func (l ringLane) AddReports(reps []est.Report) (int, error) {
	accepted, err := l.lane.AddReports(reps)
	l.r.tick(int64(accepted))
	return accepted, err
}

// AddColumns implements est.ColumnAdder, so a columnar batch reaches the
// wrapped estimator's columnar fast path instead of est.AddColumns'
// per-report fallback.
func (l ringLane) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	accepted, err := est.AddColumns(l.lane, n, ndims, nvals, dims, vals)
	l.r.tick(int64(accepted))
	return accepted, err
}

// tick advances the report-count rotation trigger.
func (r *Ring) tick(n int64) {
	if r.cfg.Every <= 0 || n <= 0 {
		return
	}
	if r.pending.Add(n) >= r.cfg.Every {
		r.mu.Lock()
		// Re-check under the lock: a concurrent tick may have rotated.
		if r.pending.Load() >= r.cfg.Every {
			r.rotateLocked()
		}
		r.mu.Unlock()
	}
}

// ---- rotation ---------------------------------------------------------------

// Rotate freezes the live epoch: the wrapped estimator's stripes are
// drained into a snapshot appended to the ring (compacting the oldest
// frozen epoch beyond the retention cap) and the next epoch starts
// empty. Returns the id of the NEW live epoch.
func (r *Ring) Rotate() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rotateLocked()
}

func (r *Ring) rotateLocked() uint64 {
	snap := r.rot.Rotate()
	r.entries = append(r.entries, Entry{ID: r.cur, Snap: snap})
	if drop := len(r.entries) - r.cfg.Retain; drop > 0 {
		r.entries = append(r.entries[:0], r.entries[drop:]...)
	}
	r.cur++
	r.pending.Store(0)
	return r.cur
}

// Current returns the live epoch id.
func (r *Ring) Current() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// ---- late reports -----------------------------------------------------------

// AddLate accumulates reports tagged with epoch id. Reports for the live
// epoch fold into the wrapped estimator under the ring lock (serialized
// with rotation, so a tagged report can never leak into the wrong
// epoch); reports for a frozen epoch follow the lateness policy. The
// return contract is est.BatchAdder's.
func (r *Ring) AddLate(id uint64, reps []est.Report) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case id > r.cur:
		return 0, fmt.Errorf("epoch: report for future epoch %d (live epoch is %d)", id, r.cur)
	case id == r.cur:
		accepted, err := est.AddReports(r.inner, reps)
		r.pending.Add(int64(accepted)) // trigger handled at next un-tagged tick or Rotate
		return accepted, err
	}
	switch r.cfg.Lateness {
	case Reject:
		return 0, fmt.Errorf("epoch: late report for epoch %d rejected (live epoch is %d)", id, r.cur)
	case Current:
		accepted, err := est.AddReports(r.inner, reps)
		r.pending.Add(int64(accepted))
		return accepted, err
	}
	// Bucket: fold through the scratch estimator so the family's own
	// validation applies, then add the drained delta into the frozen
	// snapshot. The scratch is only ever touched under r.mu.
	e := r.entryLocked(id)
	if e == nil {
		return 0, fmt.Errorf("epoch: epoch %d was compacted away (retaining %d epochs before live %d)",
			id, len(r.entries), r.cur)
	}
	accepted, err := est.AddReports(r.scratch, reps)
	if accepted > 0 {
		delta := r.scratch.(est.Rotator).Rotate()
		for i := range e.Snap.Sums {
			// Plain adds, intentionally: a frozen snapshot has no Kahan
			// lanes to resume — compensation terms do not ride the
			// checkpoint — so one uncompensated add per late batch is
			// the only fold a restored collector can reproduce bitwise.
			//hdrvet:ignore kahansum -- frozen snapshots carry no compensation lanes across checkpoints; a plain add is the reproducible fold
			e.Snap.Sums[i] += delta.Sums[i]
		}
		for i := range e.Snap.Counts {
			e.Snap.Counts[i] += delta.Counts[i]
		}
	}
	return accepted, err
}

// entryLocked returns the retained entry with the given id, or nil.
func (r *Ring) entryLocked(id uint64) *Entry {
	// Entries are contiguous ids ending at cur−1; index directly.
	if len(r.entries) == 0 {
		return nil
	}
	first := r.entries[0].ID
	if id < first || id >= first+uint64(len(r.entries)) {
		return nil
	}
	return &r.entries[id-first]
}

// ---- derived reads ----------------------------------------------------------

// WindowSnapshot folds the live epoch plus the last w−1 frozen epochs
// into one snapshot (w < 1 errors; a window wider than what is retained
// clamps to everything available, matching "the last W epochs" before W
// epochs exist). Counts add in int64 — exact; sums add plainly, oldest
// epoch first then the live epoch, a fixed deterministic order.
func (r *Ring) WindowSnapshot(w int) (est.Snapshot, error) {
	if w < 1 {
		return est.Snapshot{}, fmt.Errorf("epoch: window %d < 1", w)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.inner.Snapshot() // freshly allocated fold — safe to mutate
	frozen := w - 1
	if frozen > len(r.entries) {
		frozen = len(r.entries)
	}
	for _, e := range r.entries[len(r.entries)-frozen:] {
		for i, s := range e.Snap.Sums {
			out.Sums[i] += s
		}
		for i, c := range e.Snap.Counts {
			out.Counts[i] += c
		}
	}
	return out, nil
}

// WindowEstimate is the family estimate over the last w epochs (live
// epoch included): EstimateFrom applied to WindowSnapshot.
func (r *Ring) WindowEstimate(w int) ([]float64, error) {
	snap, err := r.WindowSnapshot(w)
	if err != nil {
		return nil, err
	}
	return r.inner.(est.SnapshotEstimator).EstimateFrom(snap)
}

// DecayedEstimate folds every retained epoch with weight gamma^age (the
// live epoch has age 0, the epoch frozen by the most recent rotation age
// 1, …) and feeds the real-valued effective sums and counts through the
// family's weighted estimate. gamma must be in (0, 1]; gamma == 1
// weights every retained epoch equally.
func (r *Ring) DecayedEstimate(gamma float64) ([]float64, error) {
	if !(gamma > 0 && gamma <= 1) || math.IsNaN(gamma) {
		return nil, fmt.Errorf("epoch: decay factor %v outside (0, 1]", gamma)
	}
	we, ok := r.inner.(est.WeightedEstimator)
	if !ok {
		return nil, fmt.Errorf("epoch: %T has no weighted estimate", r.inner)
	}
	r.mu.Lock()
	live := r.inner.Snapshot()
	sums := live.Sums // freshly allocated fold — safe to mutate
	counts := make([]float64, len(live.Counts))
	for i, c := range live.Counts {
		counts[i] = float64(c)
	}
	for _, e := range r.entries {
		w := math.Pow(gamma, float64(r.cur-e.ID))
		for i, s := range e.Snap.Sums {
			sums[i] += w * s
		}
		for i, c := range e.Snap.Counts {
			counts[i] += w * float64(c)
		}
	}
	r.mu.Unlock()
	return we.EstimateWeighted(sums, counts)
}

// ---- persistence ------------------------------------------------------------

// State returns the live epoch id and a deep copy of the frozen entries
// (oldest first) for checkpointing. The live epoch's accumulation is NOT
// included — it is the wrapped estimator's Snapshot, which the
// checkpoint captures through the ordinary est.Estimator path.
func (r *Ring) State() (cur uint64, entries []Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	entries = make([]Entry, len(r.entries))
	for i, e := range r.entries {
		entries[i] = Entry{ID: e.ID, Snap: cloneSnapshot(e.Snap)}
	}
	return r.cur, entries
}

// SetState restores a checkpointed ring: the live epoch id and the
// frozen entries (validated against the wrapped estimator's shape and
// required to be contiguous ids ending at cur−1). The live epoch's
// accumulation is restored separately via Merge. Entries beyond the
// retention cap are compacted, oldest first, exactly as rotation would.
func (r *Ring) SetState(cur uint64, entries []Entry) error {
	shape := r.inner.Snapshot()
	for i, e := range entries {
		if e.Snap.Kind != shape.Kind ||
			len(e.Snap.Sums) != len(shape.Sums) || len(e.Snap.Counts) != len(shape.Counts) {
			return fmt.Errorf("epoch: entry %d (epoch %d) has shape %s/%d/%d, ring wants %s/%d/%d",
				i, e.ID, e.Snap.Kind, len(e.Snap.Sums), len(e.Snap.Counts),
				shape.Kind, len(shape.Sums), len(shape.Counts))
		}
		if want := cur - uint64(len(entries)) + uint64(i); e.ID != want {
			return fmt.Errorf("epoch: entry %d has id %d, want contiguous id %d before live epoch %d",
				i, e.ID, want, cur)
		}
	}
	cp := make([]Entry, len(entries))
	for i, e := range entries {
		cp[i] = Entry{ID: e.ID, Snap: cloneSnapshot(e.Snap)}
	}
	if drop := len(cp) - r.cfg.Retain; drop > 0 {
		cp = cp[drop:]
	}
	r.mu.Lock()
	r.cur = cur
	r.entries = cp
	r.pending.Store(0)
	r.mu.Unlock()
	return nil
}

func cloneSnapshot(s est.Snapshot) est.Snapshot {
	s.Cards = append([]int(nil), s.Cards...)
	s.Sums = append([]float64(nil), s.Sums...)
	s.Counts = append([]int64(nil), s.Counts...)
	return s
}

var (
	_ est.Estimator    = (*Ring)(nil)
	_ est.BatchAdder   = (*Ring)(nil)
	_ est.LaneProvider = (*Ring)(nil)
	_ est.Enhancer     = (*Ring)(nil)
)
