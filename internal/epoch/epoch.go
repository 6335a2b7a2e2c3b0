// Package epoch adds continual collection on top of the one-shot
// estimator families: a Ring wraps a family's est.Family core and slices
// its accumulation into epochs — the live epoch accumulates in the
// core's stripe lanes exactly as before (the ingest hot path is
// untouched), and a rotation drain-folds those lanes into a bounded
// ring of frozen per-epoch snapshots.
//
// Three read paths derive from the ring without ever blocking ingest:
//
//   - current-epoch: the wrapped core's ordinary Estimate/Snapshot,
//     which after a rotation covers only reports since that rotation;
//   - sliding-window: WindowSnapshot/WindowEstimate fold the live epoch
//     plus the last W−1 frozen epochs (int64 counts add exactly, float
//     sums add plainly — oldest epoch first, then the live epoch, a
//     fixed order so the fold is deterministic);
//   - decayed: DecayedEstimate folds every retained epoch with weight
//     γ^age (live epoch age 0), producing real-valued effective counts
//     fed through the family's weighted estimate.
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
//
// Frozen epochs are immutable: a late report folded into one builds a
// new snapshot and swaps it in (copy-on-write), and rotation builds a
// new entry list, so State hands the ring's entries to a checkpoint
// without copying them.
package epoch

import (
	"fmt"
	"math"
	"slices"
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

// Ring wraps a family core with an epoch ring. It implements est.Core
// by embedding the core — Snapshot/Estimate/Counts/Enhanced cover the
// LIVE epoch only, and Merge folds into it — and overrides only the
// ingest paths, which count reports toward the rotation trigger. The
// frozen epochs are read through the Window/Decayed paths and persisted
// through State. Safe for concurrent use.
type Ring struct {
	*est.Family
	// scratch is an empty sibling of the core that the Bucket policy
	// folds late reports through (nil under the other policies).
	scratch *est.Family
	cfg     Config

	pending atomic.Int64 // reports accepted since the last rotation

	mu  sync.Mutex
	cur uint64 // live epoch id
	// entries are the frozen epochs, oldest first, ≤ cfg.Retain. Neither
	// the slice's elements nor their snapshots' arrays are ever written
	// once stored: changes replace the slice (and the changed snapshot).
	entries []Entry
}

// New wraps the family core inner in an epoch ring.
func New(inner *est.Family, cfg Config) (*Ring, error) {
	if inner == nil {
		return nil, fmt.Errorf("epoch: nil family core")
	}
	if cfg.Retain < 1 {
		cfg.Retain = DefaultRetain
	}
	if cfg.Every < 0 {
		return nil, fmt.Errorf("epoch: negative report-count trigger %d", cfg.Every)
	}
	r := &Ring{Family: inner, cfg: cfg}
	if cfg.Lateness == Bucket {
		r.scratch = inner.Empty()
	}
	return r, nil
}

// ---- ingest into the live epoch ----------------------------------------------

// Observe implements est.Estimator against the live epoch.
func (r *Ring) Observe(t est.Tuple, rng *mathx.RNG) error {
	if err := r.Family.Observe(t, rng); err != nil {
		return err
	}
	r.tick(1)
	return nil
}

// AddReport implements est.Estimator against the live epoch.
func (r *Ring) AddReport(rep est.Report) error {
	if err := r.Family.AddReport(rep); err != nil {
		return err
	}
	r.tick(1)
	return nil
}

// AddReports implements est.BatchAdder against the live epoch.
func (r *Ring) AddReports(reps []est.Report) (int, error) {
	accepted, err := r.Family.AddReports(reps)
	r.tick(int64(accepted))
	return accepted, err
}

// AddColumns implements est.ColumnAdder against the live epoch.
func (r *Ring) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	accepted, err := r.Family.AddColumns(n, ndims, nvals, dims, vals)
	r.tick(int64(accepted))
	return accepted, err
}

// AcquireLane returns a lane into the live epoch under one stripe of the
// core; it counts accepted reports toward the report-count trigger.
func (r *Ring) AcquireLane() est.Lane {
	return ringLane{r: r, lane: r.Family.AcquireLane()}
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

func (l ringLane) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	accepted, err := l.lane.AddColumns(n, ndims, nvals, dims, vals)
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

// Rotate freezes the live epoch: the core's stripes are
// drained into a snapshot appended to the ring (compacting the oldest
// frozen epoch beyond the retention cap) and the next epoch starts
// empty. Returns the id of the NEW live epoch.
func (r *Ring) Rotate() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rotateLocked()
}

func (r *Ring) rotateLocked() uint64 {
	snap := r.Family.Rotate()
	// A new list rather than an in-place shift: State may have handed
	// the current one out.
	kept := r.entries[max(0, len(r.entries)+1-r.cfg.Retain):]
	entries := make([]Entry, len(kept), len(kept)+1)
	copy(entries, kept)
	r.entries = append(entries, Entry{ID: r.cur, Snap: snap})
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
// epoch fold into the core under the ring lock (serialized
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
		accepted, err := r.Family.AddReports(reps)
		r.pending.Add(int64(accepted)) // trigger handled at next un-tagged tick or Rotate
		return accepted, err
	}
	switch r.cfg.Lateness {
	case Reject:
		return 0, fmt.Errorf("epoch: late report for epoch %d rejected (live epoch is %d)", id, r.cur)
	case Current:
		accepted, err := r.Family.AddReports(reps)
		r.pending.Add(int64(accepted))
		return accepted, err
	}
	// Bucket: fold through the scratch core so the family's own
	// validation applies, then add the frozen snapshot onto the drained
	// delta — fresh arrays — and swap the sum in as a new entry list:
	// the frozen snapshot itself is never written (copy-on-write). The
	// scratch is only ever touched under r.mu.
	i := r.entryLocked(id)
	if i < 0 {
		return 0, fmt.Errorf("epoch: epoch %d was compacted away (retaining %d epochs before live %d)",
			id, len(r.entries), r.cur)
	}
	accepted, err := r.scratch.AddReports(reps)
	if accepted > 0 {
		sum := r.scratch.Rotate()
		frozen := r.entries[i].Snap
		for j, s := range frozen.Sums {
			// Plain adds, intentionally: a frozen snapshot has no Kahan
			// lanes to resume — compensation terms do not ride the
			// checkpoint — so one uncompensated add per late batch is
			// the only fold a restored collector can reproduce bitwise.
			sum.Sums[j] += s
		}
		for j, c := range frozen.Counts {
			sum.Counts[j] += c
		}
		entries := slices.Clone(r.entries)
		entries[i].Snap = sum
		r.entries = entries
	}
	return accepted, err
}

// entryLocked returns the index of the retained entry with the given
// id, or −1.
func (r *Ring) entryLocked(id uint64) int {
	// Entries are contiguous ids ending at cur−1; index directly.
	if len(r.entries) == 0 {
		return -1
	}
	first := r.entries[0].ID
	if id < first || id >= first+uint64(len(r.entries)) {
		return -1
	}
	return int(id - first)
}

// ---- derived reads ----------------------------------------------------------

// WindowSnapshot folds the live epoch plus the last w−1 frozen epochs
// into one snapshot (w < 1 errors; a window wider than what is retained
// clamps to everything available, matching "the last W epochs" before W
// epochs exist). Counts add in int64 — exact; sums add plainly, oldest
// epoch first then the live epoch, a fixed deterministic order.
func (r *Ring) WindowSnapshot(w int) (est.Snapshot, error) {
	var out est.Snapshot
	err := r.windowInto(&out, w)
	return out, err
}

// windowInto is WindowSnapshot into dst's arrays: the live epoch folds
// into dst, then the frozen epochs of the window add onto it.
func (r *Ring) windowInto(dst *est.Snapshot, w int) error {
	if w < 1 {
		return fmt.Errorf("epoch: window %d < 1", w)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Family.SnapshotInto(dst)
	sums, counts := dst.Sums, dst.Counts // the fold's own output arrays
	frozen := min(w-1, len(r.entries))
	for _, e := range r.entries[len(r.entries)-frozen:] {
		for i, s := range e.Snap.Sums {
			sums[i] += s
		}
		for i, c := range e.Snap.Counts {
			counts[i] += c
		}
	}
	return nil
}

// WindowEstimate is the family estimate over the last w epochs (live
// epoch included).
func (r *Ring) WindowEstimate(w int) ([]float64, error) { return r.WindowEstimateInto(nil, w) }

// WindowEstimateInto is WindowEstimate written into dst: the family's
// snapshot estimate applied to the window's fold, which is pooled
// scratch, so it allocates nothing once dst has held one estimate.
func (r *Ring) WindowEstimateInto(dst []float64, w int) ([]float64, error) {
	f := est.GetScratch()
	defer est.PutScratch(f)
	if err := r.windowInto(f, w); err != nil {
		return nil, err
	}
	return r.Family.EstimateFromInto(dst, *f)
}

// weightPool recycles DecayedEstimate's real-valued effective counts.
var weightPool est.SlicePool[float64]

// DecayedEstimate folds every retained epoch with weight gamma^age (the
// live epoch has age 0, the epoch frozen by the most recent rotation age
// 1, …) and feeds the real-valued effective sums and counts through the
// family's weighted estimate. gamma must be in (0, 1]; gamma == 1
// weights every retained epoch equally.
func (r *Ring) DecayedEstimate(gamma float64) ([]float64, error) {
	return r.DecayedEstimateInto(nil, gamma)
}

// DecayedEstimateInto is DecayedEstimate written into dst; the decayed
// fold is pooled scratch.
func (r *Ring) DecayedEstimateInto(dst []float64, gamma float64) ([]float64, error) {
	if !(gamma > 0 && gamma <= 1) || math.IsNaN(gamma) {
		return nil, fmt.Errorf("epoch: decay factor %v outside (0, 1]", gamma)
	}
	live := est.GetScratch()
	defer est.PutScratch(live)
	r.mu.Lock()
	r.Family.SnapshotInto(live)
	sums := live.Sums // pooled scratch — safe to mutate
	cp := weightPool.Get(len(live.Counts))
	defer weightPool.Put(cp)
	counts := *cp
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
	return r.Family.EstimateWeightedInto(dst, sums, counts)
}

// ---- persistence ------------------------------------------------------------

// State returns the live epoch id and the frozen entries (oldest first)
// for checkpointing. The entries are the ring's own, shared rather than
// copied: frozen epochs are immutable, so they stay valid however the
// ring moves on, and the caller must not modify them. The live epoch's
// accumulation is NOT included — it is the core's Snapshot, which the
// checkpoint captures through the ordinary est.Estimator path.
func (r *Ring) State() (cur uint64, entries []Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur, r.entries
}

// SetState restores a checkpointed ring: the live epoch id and the
// frozen entries (validated against the core's shape and
// required to be contiguous ids ending at cur−1). The live epoch's
// accumulation is restored separately via Merge. Entries beyond the
// retention cap are compacted, oldest first, exactly as rotation would.
// The ring keeps the entries' snapshots, as frozen epochs it never
// writes; the caller must not modify them afterwards.
func (r *Ring) SetState(cur uint64, entries []Entry) error {
	shape := r.Family.Snapshot()
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
	kept := slices.Clone(entries[max(0, len(entries)-r.cfg.Retain):])
	r.mu.Lock()
	r.cur = cur
	r.entries = kept
	r.pending.Store(0)
	r.mu.Unlock()
	return nil
}

var _ est.Core = (*Ring)(nil)
