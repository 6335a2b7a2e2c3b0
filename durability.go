// Durable collector state: checkpoint/restore for sessions, registries
// and the privacy accountant. A checkpoint is a versioned, CRC-guarded
// file (internal/persist) holding every query's spec, lifecycle and
// folded snapshot plus the accountant ledger, written atomically so a
// crash never leaves a torn file. Restores replay specs through the
// ordinary Open path, so restored queries pass the same budget gating as
// live registrations, and merge the saved snapshots into fresh
// estimators — bitwise-reproducing the checkpointed estimates.
package hdr4me

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"time"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/persist"
)

// persistFileName is the checkpoint's file name inside a state
// directory (re-exported for the session's restore-pending probe).
const persistFileName = persist.FileName

// ErrCorruptCheckpoint marks a checkpoint file that exists but fails its
// integrity checks (bad magic, unknown version, truncation, CRC
// mismatch). Callers must treat it as "no usable checkpoint" and start
// fresh — a checkpoint is restored fully or not at all.
var ErrCorruptCheckpoint = persist.ErrCorrupt

// WithStateDir enables durability for a Session: SaveCheckpoint writes
// the estimator's folded state into dir (atomically, temp file +
// rename), and RestoreCheckpoint folds a previously saved checkpoint
// back in. The directory is created on first save.
func WithStateDir(dir string) Option {
	return func(c *sessionConfig) error {
		if dir == "" {
			return fmt.Errorf("hdr4me: empty state directory")
		}
		c.stateDir = dir
		return nil
	}
}

// WithCheckpointInterval starts a background checkpointer: the session
// saves a checkpoint every d until Close. Requires WithStateDir. When
// the state directory already holds a previous run's checkpoint, the
// periodic writer holds off until RestoreCheckpoint has been called
// (whatever its outcome) or an explicit SaveCheckpoint declares a fresh
// history — a restorable checkpoint is never overwritten behind the
// caller's back. Errors from periodic saves are returned by Close,
// which also writes one final checkpoint.
func WithCheckpointInterval(d time.Duration) Option {
	return func(c *sessionConfig) error {
		if d <= 0 {
			return fmt.Errorf("hdr4me: checkpoint interval %v must be positive", d)
		}
		c.ckptEvery = d
		return nil
	}
}

// checkpointSpec describes this session's estimator for the checkpoint
// file. Sessions whose configuration a QuerySpec cannot express — a
// per-dimension budget allocation — refuse to checkpoint: a partial
// record (kind/dims only) would let a restore silently fold data
// collected under different privacy parameters, exactly what the
// compatibility check exists to prevent.
func (s *Session) checkpointSpec() (QuerySpec, error) {
	spec, err := s.Spec()
	if err != nil {
		return QuerySpec{}, fmt.Errorf("hdr4me: session cannot be checkpointed: %w", err)
	}
	spec.Name = est.DefaultName
	return spec, nil
}

// SaveCheckpoint writes the session's current accumulated state — one
// atomic fold of every accumulation stripe — to the configured state
// directory. The write is atomic: a crash mid-save leaves the previous
// checkpoint intact. Reports arriving after the fold are not in this
// checkpoint; they are in the next one.
func (s *Session) SaveCheckpoint() error {
	if s.cfg.stateDir == "" {
		return fmt.Errorf("hdr4me: session has no state directory (use WithStateDir)")
	}
	spec, err := s.checkpointSpec()
	if err != nil {
		return err
	}
	// An explicit save declares the previous run's checkpoint dealt
	// with: from here on the periodic writer may overwrite it.
	s.restorePending.Store(false)
	// One writer at a time: fold and rename under the lock, so the file
	// on disk always holds the newest fold even when on-demand, periodic
	// and final saves overlap.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	// The fold is pooled scratch, as persist.Capture's: Save only
	// encodes it, so it goes back to the pool once the file is written.
	fold := est.GetScratch()
	defer est.PutScratch(fold)
	s.fam.SnapshotInto(fold)
	rec := persist.QueryRecord{Spec: spec, Snap: *fold}
	if s.ring != nil {
		cur, entries := s.ring.State()
		rec.Epochs = &persist.EpochState{Cur: cur, Entries: entries}
	}
	return persist.Save(s.cfg.stateDir, persist.State{Queries: []persist.QueryRecord{rec}})
}

// RestoreCheckpoint folds the state directory's checkpoint back into the
// session: restored=false with a nil error when no checkpoint exists
// (first boot), restored=true after a successful merge. A corrupt file
// (ErrCorruptCheckpoint) or a checkpoint from an incompatibly configured
// session is refused with the session untouched — fresh start, never a
// silent partial restore. Call it on a freshly built session, before
// live traffic, so the merged fold reproduces the saved estimate
// bitwise.
func (s *Session) RestoreCheckpoint() (restored bool, err error) {
	if s.cfg.stateDir == "" {
		return false, fmt.Errorf("hdr4me: session has no state directory (use WithStateDir)")
	}
	live, err := s.checkpointSpec()
	if err != nil {
		return false, err
	}
	// Either way this attempt settles the previous checkpoint's fate
	// (restored, refused, or absent): the periodic writer may proceed.
	// ckptMu serializes the load+merge against concurrent saves.
	defer s.restorePending.Store(false)
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	state, err := persist.Load(s.cfg.stateDir)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	var rec *persist.QueryRecord
	for i := range state.Queries {
		if state.Queries[i].Spec.Name == est.DefaultName {
			rec = &state.Queries[i]
			break
		}
	}
	if rec == nil {
		return false, fmt.Errorf("hdr4me: checkpoint in %s has no %q query (a multi-query checkpoint belongs to RestoreCollectorState)",
			s.cfg.stateDir, est.DefaultName)
	}
	if err := CompatibleSpecs(live, rec.Spec); err != nil {
		return false, fmt.Errorf("hdr4me: checkpoint in %s does not match this session: %w", s.cfg.stateDir, err)
	}
	if err := s.Merge(rec.Snap); err != nil {
		return false, fmt.Errorf("hdr4me: checkpoint in %s: %w", s.cfg.stateDir, err)
	}
	if rec.Epochs != nil {
		if s.ring == nil {
			return false, fmt.Errorf("hdr4me: checkpoint in %s holds %d frozen epochs but this session is not continual (epoch options missing?)",
				s.cfg.stateDir, len(rec.Epochs.Entries))
		}
		if err := s.ring.SetState(rec.Epochs.Cur, rec.Epochs.Entries); err != nil {
			return false, fmt.Errorf("hdr4me: checkpoint in %s: %w", s.cfg.stateDir, err)
		}
	}
	return true, nil
}

// CompatibleSpecs reports whether two specs describe the same collection
// — same family, mechanism, budget and shape (names are not compared) —
// so a restore, or a collection round against a restored query, can
// never silently mix data collected under different privacy parameters.
// It returns nil when compatible and an error naming the first
// difference otherwise.
func CompatibleSpecs(live, saved QuerySpec) error {
	live, saved = live.Normalize(), saved.Normalize()
	if live.Kind != saved.Kind {
		return fmt.Errorf("kind %q vs saved %q", live.Kind, saved.Kind)
	}
	if live.Mech != saved.Mech {
		return fmt.Errorf("mechanism %q vs saved %q", live.Mech, saved.Mech)
	}
	if live.Eps != saved.Eps {
		return fmt.Errorf("budget ε=%g vs saved ε=%g", live.Eps, saved.Eps)
	}
	if live.D != saved.D || live.M != saved.M {
		return fmt.Errorf("dims d=%d m=%d vs saved d=%d m=%d", live.D, live.M, saved.D, saved.M)
	}
	if len(live.Cards) != len(saved.Cards) {
		return fmt.Errorf("%d cardinalities vs saved %d", len(live.Cards), len(saved.Cards))
	}
	for j := range live.Cards {
		if live.Cards[j] != saved.Cards[j] {
			return fmt.Errorf("cardinality %d in dimension %d vs saved %d", live.Cards[j], j, saved.Cards[j])
		}
	}
	return nil
}

// StartCheckpointer runs save every interval on a background goroutine
// until the returned stop function is called; stop joins the loop (no
// save is in flight once it returns) and is idempotent. Errors from
// periodic saves go to onErr (nil: dropped). It is the building block
// for keeping a collector durable between explicit checkpoints — wire
// the same save func to the server's OnCheckpoint hook and call it once
// more after the final drain; save must therefore be safe for
// concurrent use (SaveCollectorState folds atomically, but callers
// should serialize the write itself, as Session.SaveCheckpoint does).
func StartCheckpointer(interval time.Duration, save func() error, onErr func(error)) (stop func()) {
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-t.C:
				if err := save(); err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stopCh)
			<-done
		})
	}
}

// SaveCollectorState checkpoints a multi-query collector: every live
// query of reg (spec, lifecycle, folded snapshot) and, when acct is
// non-nil, its ε ledger — including the sunk spend of deleted queries —
// atomically into dir. Wire a server's OnCheckpoint hook to this (and a
// ticker, and the SIGTERM path) to make the collector durable; see
// cmd/ldpcollect.
func SaveCollectorState(dir string, reg *Registry, acct *Accountant) error {
	records := persist.Capture(reg)
	defer persist.Release(records)
	state := persist.State{Queries: records}
	if acct != nil {
		ast := &persist.AccountantState{Total: acct.Total(), Spent: acct.Spent()}
		if h := acct.Horizon(); h > 0 {
			ep, tail := acct.renewalState()
			rs := &persist.RenewalState{Horizon: h, Epoch: ep, Tail: make([]persist.TailCharge, len(tail))}
			for i, tc := range tail {
				rs.Tail[i] = persist.TailCharge{Eps: tc.eps, Left: tc.left}
			}
			ast.Renewal = rs
		}
		state.Accountant = ast
	}
	return persist.Save(dir, state)
}

// RestoreCollectorState rebuilds a collector from dir's checkpoint into
// reg — which should be freshly built, with acct as its admission policy
// and nothing registered yet. Every saved spec replays through
// reg.Open, so the registry factory constructs each estimator and acct
// re-charges each query's ε exactly as a live OPENQUERY would; the saved
// snapshots then merge in, reproducing the checkpointed estimates
// bitwise, and sealed queries are re-sealed. Spend that no longer maps
// to a live query (deleted queries' sunk cost) is re-charged against
// acct afterwards, so the restored accountant rejects the same
// registrations the pre-crash one did.
//
// It returns how many queries were restored; 0 with a nil error means no
// checkpoint exists (first boot). A corrupt checkpoint is refused
// (ErrCorruptCheckpoint) with reg untouched.
func RestoreCollectorState(dir string, reg *Registry, acct *Accountant) (restored int, err error) {
	state, err := persist.Load(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if state.Accountant != nil && acct == nil {
		// Restoring the queries while dropping their ledger would erase
		// the per-user budget enforcement the pre-crash deployment had.
		return 0, fmt.Errorf("hdr4me: checkpoint in %s carries a privacy-budget ledger (%g of %g ε spent) "+
			"but this collector has no accountant; configure the budget (e.g. -total-eps) or delete the "+
			"checkpoint to discard the ledger", dir, state.Accountant.Spent, state.Accountant.Total)
	}
	if acct != nil && state.Accountant != nil {
		if ren := state.Accountant.Renewal; ren != nil {
			// Reinstate the renewal ledger BEFORE the replay: restored
			// registrations must be gated — and charged — under the same
			// horizon the pre-crash collector ran.
			switch h := acct.Horizon(); {
			case h == 0:
				if err := acct.EnableRenewal(ren.Horizon); err != nil {
					return 0, err
				}
			case h != ren.Horizon:
				return 0, fmt.Errorf("hdr4me: checkpoint in %s renews over a %d-epoch horizon but this collector is configured for %d",
					dir, ren.Horizon, h)
			}
			tail := make([]tailCharge, len(ren.Tail))
			for i, tc := range ren.Tail {
				tail[i] = tailCharge{eps: tc.Eps, left: tc.Left}
			}
			acct.restoreRenewal(ren.Epoch, tail)
		}
	}
	if err := persist.Restore(reg, state.Queries); err != nil {
		return 0, err
	}
	if acct != nil && state.Accountant != nil {
		// Whatever the replay did not re-charge — the sunk spend of
		// queries deleted before the checkpoint — is re-applied, so the
		// restored ledger holds exactly what the saved one did. The delta
		// form works for both ledger modes: acct started empty, so its
		// current hold is precisely the replayed (and tail-restored) part
		// of the saved spend.
		if sunk := state.Accountant.Spent - acct.Spent(); sunk > budgetSlack {
			acct.chargeSunk(sunk)
		}
	}
	return len(state.Queries), nil
}
