// Registry: the multi-query collector surface. A Registry maps query
// names to live estimators, each with a lifecycle (open → sealed →
// deleted), builds estimators from QuerySpecs through an injected Factory
// (this package cannot import the family packages — they import it), and
// consults an injected Admission policy — the per-user privacy budget
// accountant — before any query goes live.
package est

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultName is the query legacy (un-routed) wire frames resolve to, and
// the name single-tenant servers register their estimator under.
const DefaultName = "default"

// Factory builds an estimator for a validated, normalized QuerySpec.
type Factory func(spec QuerySpec) (Estimator, error)

// Admission is the budget gate consulted before a query goes live. Admit
// charges the spec's ε against the per-user budget and errors when the
// charge would exceed it; Release undoes an Admit whose query never went
// live (construction failed). Deleting a live query does NOT release its
// ε — the data was already collected, so the privacy cost is sunk.
type Admission interface {
	Admit(spec QuerySpec) error
	Release(spec QuerySpec)
}

// Retirer is an optional Admission extension for budget policies with
// per-epoch renewal: Retire tells the policy a live query stopped
// collecting (it was deleted), so its recurring per-epoch charge can
// start expiring. Policies without renewal simply don't implement it —
// the sunk-cost semantics of Delete stay unchanged.
type Retirer interface {
	Retire(spec QuerySpec)
}

// QueryState is the lifecycle position of a registered query.
type QueryState int32

const (
	// StateOpen: the query accepts reports and merges, and serves estimates.
	StateOpen QueryState = iota
	// StateSealed: no more data is accepted; estimates are still served.
	StateSealed
	// StateDeleted: the query is gone and its name is free for reuse.
	StateDeleted
)

// String returns the lifecycle state name.
func (s QueryState) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateSealed:
		return "sealed"
	case StateDeleted:
		return "deleted"
	}
	return fmt.Sprintf("QueryState(%d)", int32(s))
}

// Query is one live entry of a Registry: a named estimator, adapted to
// the Core contract once at registration (see Adapt), plus its
// lifecycle state. Mutating calls (AddReport, Merge) go through the Query
// so sealing takes effect immediately; reads go straight to the estimator
// and keep working on sealed queries. Safe for concurrent use.
type Query struct {
	spec  QuerySpec
	est   Core
	gen   uint64
	state atomic.Int32
}

// Spec returns a copy of the query's spec.
func (q *Query) Spec() QuerySpec { return q.spec.clone() }

// Gen returns the query's registry generation: a registry-unique id
// assigned at registration, never reused. A name freed by Delete and
// re-opened yields a query with a different generation, so routed
// clients pinning a generation can detect that "the query named X" they
// bound to is not the one now live under that name.
func (q *Query) Gen() uint64 { return q.gen }

// Name returns the query name.
func (q *Query) Name() string { return q.spec.Name }

// Estimator returns the underlying estimator (reads remain valid in every
// lifecycle state; a deleted query's estimator simply stops growing).
func (q *Query) Estimator() Core { return q.est }

// State returns the query's lifecycle state.
func (q *Query) State() QueryState { return QueryState(q.state.Load()) }

// AddReport accumulates one report, rejecting it unless the query is open.
func (q *Query) AddReport(rep Report) error {
	if st := q.State(); st != StateOpen {
		return fmt.Errorf("est: query %q is %s, not accepting reports", q.spec.Name, st)
	}
	return q.est.AddReport(rep)
}

// AddReports accumulates a batch of reports with one lifecycle check and
// (for the built-in families) one accumulation-lock acquisition for the
// whole batch. The return contract is BatchAdder's: rejected reports are
// skipped and counted out of accepted, err carries the first rejection.
func (q *Query) AddReports(reps []Report) (int, error) {
	if st := q.State(); st != StateOpen {
		return 0, fmt.Errorf("est: query %q is %s, not accepting reports", q.spec.Name, st)
	}
	return q.est.AddReports(reps)
}

// AcquireLane binds the caller to one accumulation stripe of the query's
// estimator (round-robin; a pass-through for a custom estimator). The
// returned lane re-checks the query lifecycle on every call, so sealing
// still takes effect immediately on connections holding lanes.
func (q *Query) AcquireLane() Lane {
	return queryLane{q: q, lane: AcquireLane(q.est)}
}

// queryLane gates a stripe-bound lane behind the query lifecycle.
type queryLane struct {
	q    *Query
	lane Lane
}

// open errors unless the lane's query accepts reports.
func (l queryLane) open() error {
	if st := l.q.State(); st != StateOpen {
		return fmt.Errorf("est: query %q is %s, not accepting reports", l.q.spec.Name, st)
	}
	return nil
}

func (l queryLane) AddReport(rep Report) error {
	if err := l.open(); err != nil {
		return err
	}
	return l.lane.AddReport(rep)
}

func (l queryLane) AddReports(reps []Report) (int, error) {
	if err := l.open(); err != nil {
		return 0, err
	}
	return l.lane.AddReports(reps)
}

func (l queryLane) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	if err := l.open(); err != nil {
		return 0, err
	}
	return l.lane.AddColumns(n, ndims, nvals, dims, vals)
}

// Merge folds a peer snapshot in, rejecting it unless the query is open.
func (q *Query) Merge(s Snapshot) error {
	if st := q.State(); st != StateOpen {
		return fmt.Errorf("est: query %q is %s, not accepting merges", q.spec.Name, st)
	}
	return q.est.Merge(s)
}

// Registry is the named-query table a multi-query collector serves. All
// methods are safe for concurrent use.
type Registry struct {
	factory Factory
	adm     Admission

	mu      sync.RWMutex
	queries map[string]*Query
	gens    uint64 // last generation handed out; 0 is never a live generation
}

// NewRegistry returns an empty registry. factory builds estimators for
// specs arriving through Open (nil: only Attach works — the registry can
// host pre-built estimators but not construct new ones). adm, when
// non-nil, gates every Open and Attach against the privacy budget.
func NewRegistry(factory Factory, adm Admission) *Registry {
	return &Registry{factory: factory, adm: adm, queries: make(map[string]*Query)}
}

// Open validates and normalizes spec, charges it against the admission
// policy, builds its estimator through the factory, and registers it. The
// name must be free (never used, or deleted).
func (r *Registry) Open(spec QuerySpec) (*Query, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if r.factory == nil {
		return nil, fmt.Errorf("est: registry has no estimator factory; use Attach")
	}
	return r.admit(spec, nil)
}

// Attach registers a pre-built estimator under spec.Name — the path for
// in-process sessions that already own their estimator. Only the name is
// required; when spec.Eps > 0 the admission policy still charges it.
func (r *Registry) Attach(spec QuerySpec, e Estimator) (*Query, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("est: query spec has no name")
	}
	if e == nil {
		return nil, fmt.Errorf("est: nil estimator for query %q", spec.Name)
	}
	if spec.Kind == "" {
		spec.Kind = e.Kind()
	}
	return r.admit(spec, e)
}

// admit runs the shared register path: budget charge, optional estimator
// construction, insertion. Caller passes e != nil to skip the factory.
func (r *Registry) admit(spec QuerySpec, e Estimator) (*Query, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.queries[spec.Name]; taken {
		return nil, fmt.Errorf("est: query %q already exists", spec.Name)
	}
	if r.adm != nil {
		if err := r.adm.Admit(spec); err != nil {
			return nil, err
		}
	}
	if e == nil {
		var err error
		if e, err = r.factory(spec); err != nil {
			// The query never went live; hand its charge back.
			if r.adm != nil {
				r.adm.Release(spec)
			}
			return nil, err
		}
	}
	r.gens++
	q := &Query{spec: spec.clone(), est: Adapt(e), gen: r.gens}
	r.queries[spec.Name] = q
	return q, nil
}

// Get returns the named query, or nil when no such query is live.
func (r *Registry) Get(name string) *Query {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.queries[name]
}

// Default returns the query legacy un-routed frames resolve to, or nil.
func (r *Registry) Default() *Query { return r.Get(DefaultName) }

// Seal transitions the named query to StateSealed: reports and merges are
// rejected from now on, estimates keep being served. Sealing a sealed
// query is a no-op.
func (r *Registry) Seal(name string) error {
	q := r.Get(name)
	if q == nil {
		return fmt.Errorf("est: no query %q", name)
	}
	q.state.CompareAndSwap(int32(StateOpen), int32(StateSealed))
	return nil
}

// Delete removes the named query and frees its name for reuse. Handles
// still holding the query see StateDeleted and reject all mutation. The
// privacy budget already charged is NOT released: collected data keeps
// its cost even after the query is gone.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	q, ok := r.queries[name]
	if ok {
		delete(r.queries, name)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("est: no query %q", name)
	}
	q.state.Store(int32(StateDeleted))
	// Budget policies with per-epoch renewal stop the query's recurring
	// charge; everything already spent stays sunk either way.
	if ret, ok := r.adm.(Retirer); ok {
		ret.Retire(q.spec)
	}
	return nil
}

// All returns every live query sorted by name — one consistent view of
// the registry taken under a single lock, so a caller walking the result
// (a checkpointer, a status page) never sees a name resolved by Names
// vanish before its Get. The *Query handles stay live-updating: a query
// deleted after All returns reports StateDeleted through its handle.
func (r *Registry) All() []*Query {
	r.mu.RLock()
	qs := make([]*Query, 0, len(r.queries))
	for _, q := range r.queries {
		qs = append(qs, q)
	}
	r.mu.RUnlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].spec.Name < qs[j].spec.Name })
	return qs
}

// Names returns the live query names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.queries))
	for name := range r.queries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of live queries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.queries)
}
