// Continual collection: the epoch subsystem surfaced at the facade.
// A continual session (or collector query) wraps its estimator in an
// epoch.Ring — the live epoch accumulates as before, and rotation
// (wall-clock, report-count, or explicit) freezes it into a bounded ring
// of per-epoch snapshots. Derived read paths answer the questions a
// one-shot estimate cannot: the current epoch alone, a sliding window
// over the last W epochs, or an exponentially decayed estimate that
// forgets old traffic smoothly. With an Accountant renewal horizon, the
// privacy guarantee is scoped to any window of h consecutive epochs and
// budgets renew as epochs expire (see Accountant's per-epoch renewal
// notes).
package hdr4me

import (
	"fmt"
	"time"

	"github.com/hdr4me/hdr4me/internal/epoch"
	"github.com/hdr4me/hdr4me/internal/est"
)

// LatenessPolicy says what a continual collector does with a report
// tagged with an epoch that is no longer the live one.
type LatenessPolicy = epoch.Policy

const (
	// LateBucket (default): fold the late report into its frozen epoch
	// while that epoch is retained; reject it once compacted away.
	LateBucket = epoch.Bucket
	// LateReject: refuse every report not tagged with the live epoch.
	LateReject = epoch.Reject
	// LateCurrent: fold late reports into the live epoch — counted, but
	// per-epoch attribution is lost.
	LateCurrent = epoch.Current
)

// ParseLatenessPolicy parses a policy name ("bucket", "reject",
// "current") — the ldpcollect -lateness flag values.
func ParseLatenessPolicy(s string) (LatenessPolicy, error) { return epoch.ParsePolicy(s) }

// EpochConfig bundles the continual-collection knobs of a multi-query
// collector (NewEpochQueryRegistry).
type EpochConfig struct {
	// Every rotates a query after this many accepted reports (0: only
	// explicit rotation — RotateCollector, the ROTATE wire frame — does).
	Every int64
	// Retain caps the frozen epochs each query keeps (<1: the epoch
	// package default).
	Retain int
	// Lateness picks the late-report policy (zero value: LateBucket).
	Lateness LatenessPolicy
	// Horizon, when positive, switches the accountant to per-epoch budget
	// renewal over windows of this many epochs.
	Horizon int
}

// NewEpochQueryRegistry is NewQueryRegistry for continual collection:
// every query the factory builds is an epoch ring around the ordinary
// family estimator, and — when cfg.Horizon is positive — acct switches
// to the per-epoch renewal ledger. Call RotateCollector once per
// collector epoch to rotate every query and renew the budget together.
func NewEpochQueryRegistry(acct *Accountant, cfg EpochConfig) (*Registry, error) {
	ecfg := epoch.Config{Every: cfg.Every, Retain: cfg.Retain, Lateness: cfg.Lateness}
	factory := func(spec est.QuerySpec) (est.Core, error) {
		fam, err := familyForSpec(spec)
		if err != nil {
			return nil, err
		}
		return epoch.New(fam, ecfg)
	}
	if cfg.Horizon > 0 {
		if acct == nil {
			return nil, fmt.Errorf("hdr4me: a renewal horizon needs an accountant (budget to renew against)")
		}
		if err := acct.EnableRenewal(cfg.Horizon); err != nil {
			return nil, err
		}
	}
	if acct == nil {
		return est.NewRegistry(factory, nil), nil
	}
	return est.NewRegistry(factory, acct), nil
}

// RotateCollector advances a continual collector one epoch: every
// non-deleted continual query's live epoch freezes into its ring, and —
// when acct runs a renewal horizon — the budget ledger renews once.
// Rotation and renewal share one clock by construction: call this from
// the collector's epoch ticker (and once more on drain), never per
// query.
func RotateCollector(reg *Registry, acct *Accountant) {
	for _, q := range reg.All() {
		if q.State() == QueryDeleted {
			continue
		}
		if ring, ok := q.Estimator().(*epoch.Ring); ok {
			ring.Rotate()
		}
	}
	if acct != nil && acct.Horizon() > 0 {
		acct.Renew()
	}
}

// ---- session options --------------------------------------------------------

// WithEpochDuration makes the session continual with a wall-clock epoch:
// a background ticker rotates the ring every d until Close.
func WithEpochDuration(d time.Duration) Option {
	return func(c *sessionConfig) error {
		if d <= 0 {
			return fmt.Errorf("hdr4me: epoch duration %v must be positive", d)
		}
		c.epochDur = d
		c.epochs = true
		return nil
	}
}

// WithEpochEvery makes the session continual with a report-count epoch:
// the ring rotates after every n accepted reports.
func WithEpochEvery(n int64) Option {
	return func(c *sessionConfig) error {
		if n < 1 {
			return fmt.Errorf("hdr4me: epoch report-count trigger %d must be positive", n)
		}
		c.epochEvery = n
		c.epochs = true
		return nil
	}
}

// WithWindow makes the session continual and sets the default width of
// WindowEstimate: the last w epochs, live epoch included. Retention is
// raised to cover the window when needed.
func WithWindow(w int) Option {
	return func(c *sessionConfig) error {
		if w < 1 {
			return fmt.Errorf("hdr4me: window of %d epochs must be positive", w)
		}
		c.window = w
		c.epochs = true
		return nil
	}
}

// WithDecay makes the session continual and sets the default decay rate
// of DecayedEstimate: the epoch k behind the live one is weighted
// gamma^k. gamma must be in (0, 1]; 1 weighs every retained epoch
// equally.
func WithDecay(gamma float64) Option {
	return func(c *sessionConfig) error {
		if !(gamma > 0 && gamma <= 1) {
			return fmt.Errorf("hdr4me: decay rate %v must be in (0, 1]", gamma)
		}
		c.decay = gamma
		c.epochs = true
		return nil
	}
}

// WithLateness makes the session continual and picks its late-report
// policy (default LateBucket).
func WithLateness(p LatenessPolicy) Option {
	return func(c *sessionConfig) error {
		if p != LateBucket && p != LateReject && p != LateCurrent {
			return fmt.Errorf("hdr4me: unknown lateness policy %d", p)
		}
		c.lateness = p
		c.epochs = true
		return nil
	}
}

// WithEpochRetain makes the session continual and caps how many frozen
// epochs its ring keeps (default: the epoch package default, or the
// WithWindow width when larger).
func WithEpochRetain(n int) Option {
	return func(c *sessionConfig) error {
		if n < 1 {
			return fmt.Errorf("hdr4me: epoch retention %d must be positive", n)
		}
		c.epochRetain = n
		c.epochs = true
		return nil
	}
}

// ---- session surface --------------------------------------------------------

// ServingEstimator returns the estimator core to expose over the wire:
// the epoch ring for a continual session (so routed EPOCH/WINDOW/DECAY/
// ROTATE frames work), the session's family core (see Estimator)
// otherwise.
func (s *Session) ServingEstimator() Estimator {
	if s.ring != nil {
		return s.ring
	}
	return s.Estimator()
}

// Continual reports whether the session collects in epochs.
func (s *Session) Continual() bool { return s.ring != nil }

// CurrentEpoch returns the live epoch id (0 for one-shot sessions,
// which never rotate).
func (s *Session) CurrentEpoch() uint64 {
	if s.ring == nil {
		return 0
	}
	return s.ring.Current()
}

// Rotate freezes the live epoch into the ring and returns the new live
// epoch id. It errors on one-shot sessions.
func (s *Session) Rotate() (uint64, error) {
	if s.ring == nil {
		return 0, fmt.Errorf("hdr4me: session is not continual (use WithEpochDuration or WithEpochEvery)")
	}
	return s.ring.Rotate(), nil
}

// WindowEstimate estimates over the last w epochs, live epoch included;
// w <= 0 selects the WithWindow default. The result over W epochs
// matches a one-shot collection fed only those epochs' reports.
func (s *Session) WindowEstimate(w int) ([]float64, error) {
	if s.ring == nil {
		return nil, fmt.Errorf("hdr4me: session is not continual (use WithWindow)")
	}
	if w <= 0 {
		if w = s.cfg.window; w <= 0 {
			return nil, fmt.Errorf("hdr4me: no window width (pass w > 0 or build the session WithWindow)")
		}
	}
	return s.ring.WindowEstimate(w)
}

// DecayedEstimate returns the exponentially decayed estimate; gamma <= 0
// selects the WithDecay default.
func (s *Session) DecayedEstimate(gamma float64) ([]float64, error) {
	if s.ring == nil {
		return nil, fmt.Errorf("hdr4me: session is not continual (use WithDecay)")
	}
	if gamma <= 0 {
		if gamma = s.cfg.decay; gamma <= 0 {
			return nil, fmt.Errorf("hdr4me: no decay rate (pass gamma in (0,1] or build the session WithDecay)")
		}
	}
	return s.ring.DecayedEstimate(gamma)
}

// buildRing wraps the session's family core in an epoch ring. Called
// from New when any epoch option is set.
func (s *Session) buildRing() (*epoch.Ring, error) {
	c := &s.cfg
	retain := c.epochRetain
	if retain < c.window {
		// A w-epoch window needs w-1 frozen epochs; keep the whole window.
		retain = c.window
	}
	return epoch.New(s.fam, epoch.Config{
		Every:    c.epochEvery,
		Retain:   retain,
		Lateness: c.lateness,
	})
}
