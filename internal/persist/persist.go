// Package persist makes collector state durable: a versioned,
// CRC-guarded checkpoint file holding every registered query — its
// QuerySpec, lifecycle state, and a point-in-time est.Snapshot with the
// stripe lanes already folded — plus the privacy accountant's ledger.
// Checkpoints are written atomically (temp file + rename), so a crash at
// any instant leaves either the previous checkpoint or the new one,
// never a torn file; a file that fails its CRC is refused outright
// (ErrCorrupt), so a restore is always all-or-nothing.
//
// Restore deliberately does NOT deserialize estimators. It replays each
// saved QuerySpec through the registry's ordinary Open path — the same
// Factory construction and Admission budget gating a live OPENQUERY
// passes — and then Merges the saved snapshot into the fresh estimator.
// Restored state therefore cannot bypass the privacy accounting, and the
// restored estimate is bitwise-equal to the checkpointed fold (merging a
// snapshot into an empty estimator reproduces its sums exactly; see
// est.Stripes).
//
// What is and is not recovered: everything a Snapshot captures (folded
// sums, counts), query specs and lifecycle, and the accountant ledger.
// Reports accepted after the last checkpoint are lost by design — the
// durability unit is the checkpoint cadence, not the individual report.
package persist

import (
	"fmt"

	"github.com/hdr4me/hdr4me/internal/epoch"
	"github.com/hdr4me/hdr4me/internal/est"
)

// AccountantState is the privacy accountant's ledger at checkpoint time:
// the configured per-user budget ceiling and the cumulative ε charged
// against it (including the sunk spend of since-deleted queries).
type AccountantState struct {
	Total float64
	Spent float64
	// Renewal is the per-epoch renewal ledger; nil when renewal is off.
	Renewal *RenewalState
}

// RenewalState is the continual-collection half of the ledger: the
// epoch counter and the decaying charges of retired renewed queries.
// The live rate is not stored — restore reconstructs it by re-admitting
// the checkpointed queries through the ordinary Open path.
type RenewalState struct {
	Horizon int
	Epoch   uint64
	Tail    []TailCharge
}

// TailCharge is one retired renewed query's remaining window exposure:
// Eps·Left of budget still held, decaying by Eps per epoch.
type TailCharge struct {
	Eps  float64
	Left int
}

// EpochState is a query's frozen epoch ring at checkpoint time. The
// live epoch's accumulation is NOT here — it is the QueryRecord's Snap,
// captured through the ordinary estimator path.
type EpochState struct {
	// Cur is the live epoch id.
	Cur uint64
	// Entries are the retained frozen epochs, oldest first, with
	// contiguous ids ending at Cur−1. Epochs compacted away before the
	// checkpoint are gone for good — retention bounds the file size.
	Entries []epoch.Entry
}

// QueryRecord is one registered query's durable form.
type QueryRecord struct {
	// Spec is the query's full serializable description — everything the
	// registry factory needs to rebuild the estimator.
	Spec est.QuerySpec
	// Sealed records a StateSealed lifecycle (deleted queries are not
	// checkpointed; their name is free, only their budget charge — part
	// of the accountant's Spent — survives).
	Sealed bool
	// Snap is the estimator's folded accumulated state (for an epoch
	// ring: the live epoch only).
	Snap est.Snapshot
	// Epochs is the query's frozen epoch ring; nil for one-shot queries.
	Epochs *EpochState

	// fold is the pooled scratch Capture folded Snap into (see Release).
	fold *est.Snapshot
}

// State is a complete collector checkpoint.
type State struct {
	// Accountant is the budget ledger; nil for unaccounted collectors.
	Accountant *AccountantState
	// Queries lists every live query, sorted by name.
	Queries []QueryRecord
}

// Capture takes a durable view of reg: every live query's spec,
// lifecycle and folded snapshot, in name order. Each snapshot is an
// atomic fold of that query's estimator; queries mutating concurrently
// checkpoint whatever prefix of their stream had landed. The folds are
// pooled scratch and an epoch ring's frozen epochs are the ring's own
// (immutable) entries, so a capture copies no accumulated state; hand
// the records to Release once they are encoded.
func Capture(reg *est.Registry) []QueryRecord {
	queries := reg.All()
	records := make([]QueryRecord, 0, len(queries))
	for _, q := range queries {
		if q.State() == est.StateDeleted {
			continue // deleted between All and here: gone, not durable
		}
		fold := est.GetScratch()
		q.Estimator().SnapshotInto(fold)
		rec := QueryRecord{
			Spec:   q.Spec(),
			Sealed: q.State() == est.StateSealed,
			Snap:   *fold,
			fold:   fold,
		}
		if ring, ok := q.Estimator().(*epoch.Ring); ok {
			cur, entries := ring.State()
			rec.Epochs = &EpochState{Cur: cur, Entries: entries}
		}
		records = append(records, rec)
	}
	return records
}

// Release returns the snapshot folds of records made by Capture to the
// scratch pool. Neither the records' snapshots nor anything sliced from
// them may be used afterwards.
func Release(records []QueryRecord) {
	for i := range records {
		if f := records[i].fold; f != nil {
			records[i].Snap, records[i].fold = est.Snapshot{}, nil
			est.PutScratch(f)
		}
	}
}

// Restore replays records into reg through its ordinary Open path: the
// factory builds each estimator, the admission policy re-charges each
// spec's ε — restored queries pass the exact budget gating live
// registrations do — and the saved snapshot then Merges into the fresh
// estimator, reproducing the checkpointed sums bitwise. Sealed queries
// are re-sealed after their merge.
//
// Restore stops at the first failure and reports which query refused;
// the caller decides whether a partially-restored registry is usable
// (ldpcollect treats it as fatal at startup — the registry was empty, so
// nothing is silently half-recovered).
func Restore(reg *est.Registry, records []QueryRecord) error {
	for _, rec := range records {
		q, err := reg.Open(rec.Spec)
		if err != nil {
			return fmt.Errorf("persist: restore query %q: %w", rec.Spec.Name, err)
		}
		if err := q.Merge(rec.Snap); err != nil {
			return fmt.Errorf("persist: restore query %q: %w", rec.Spec.Name, err)
		}
		if rec.Epochs != nil {
			ring, ok := q.Estimator().(*epoch.Ring)
			if !ok {
				return fmt.Errorf("persist: restore query %q: checkpoint has %d frozen epochs but the registry built a one-shot estimator (epoch mode off?)",
					rec.Spec.Name, len(rec.Epochs.Entries))
			}
			if err := ring.SetState(rec.Epochs.Cur, rec.Epochs.Entries); err != nil {
				return fmt.Errorf("persist: restore query %q: %w", rec.Spec.Name, err)
			}
		}
		if rec.Sealed {
			if err := reg.Seal(rec.Spec.Name); err != nil {
				return fmt.Errorf("persist: restore query %q: %w", rec.Spec.Name, err)
			}
		}
	}
	return nil
}
