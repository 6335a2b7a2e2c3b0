// Multi-query collector surface: named queries described by QuerySpecs,
// hosted in a Registry behind one TCP port, budget-gated by an
// Accountant, and driven remotely through client-side Query handles. One
// CollectorServer serves any number of concurrent analytics — means over
// different attribute sets, whole-tuple distributions, frequencies —
// against the same user population, with the per-user privacy spend
// accounted across all of them.
package hdr4me

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/transport"
)

// QuerySpec describes one named analytics query: family kind, mechanism,
// per-user budget ε, and dimensions. The same spec drives an in-process
// Session (NewFromSpec), a registry entry (Registry.Open), and a remote
// registration (CollectorClient.Open → the OPENQUERY wire frame).
type QuerySpec = est.QuerySpec

// Registry is the named-query table a multi-query collector serves; build
// one with NewQueryRegistry. Each entry walks the lifecycle open (reports
// accepted) → sealed (estimates only) → deleted (name freed).
type Registry = est.Registry

// RegisteredQuery is one live Registry entry: a named estimator plus its
// lifecycle state.
type RegisteredQuery = est.Query

// Query lifecycle states (RegisteredQuery.State).
const (
	QueryOpen    = est.StateOpen
	QuerySealed  = est.StateSealed
	QueryDeleted = est.StateDeleted
)

// CollectorQuery is the client-side handle on one named query of a remote
// collector: its exchanges ride SELECT-routed wire frames, so one
// connection serves many queries.
type CollectorQuery = transport.Query

// DefaultQueryName is the query legacy (un-routed) clients talk to.
const DefaultQueryName = est.DefaultName

// NewQueryRegistry returns an empty registry whose estimators are built
// from QuerySpecs by the same family construction Sessions use. acct,
// when non-nil, gates every registration against the per-user privacy
// budget; nil disables accounting.
func NewQueryRegistry(acct *Accountant) *Registry {
	if acct == nil {
		return est.NewRegistry(estimatorForSpec, nil)
	}
	return est.NewRegistry(estimatorForSpec, acct)
}

// NewRegistryServer wraps a registry of named queries in a TCP collector:
// one port, many concurrent analytics. Legacy un-routed frames resolve to
// the DefaultQueryName entry, if registered.
func NewRegistryServer(reg *Registry) *CollectorServer {
	return transport.NewRegistryServer(reg)
}

// DialCollectorContext connects to a collector at addr under ctx: a
// cancelled or expired context aborts the dial.
func DialCollectorContext(ctx context.Context, addr string, opts ...CollectorClientOption) (*CollectorClient, error) {
	return transport.DialContext(ctx, addr, opts...)
}

// estimatorForSpec is the registry factory: one validated QuerySpec in,
// one fresh family core out.
func estimatorForSpec(spec est.QuerySpec) (est.Estimator, error) { return familyForSpec(spec) }

// familyForSpec builds spec's family core via the session configuration
// machinery.
func familyForSpec(spec est.QuerySpec) (*est.Family, error) {
	var cfg sessionConfig
	if err := applySpec(&cfg, spec); err != nil {
		return nil, err
	}
	return buildEstimator(&cfg)
}

// applySpec translates a normalized spec into a session configuration.
func applySpec(c *sessionConfig, spec QuerySpec) error {
	spec = spec.Normalize()
	named := spec
	if named.Name == "" {
		named.Name = "session" // Validate requires a name; sessions have none
	}
	if err := named.Validate(); err != nil {
		return err
	}
	c.eps = spec.Eps
	switch spec.Kind {
	case KindWholeTuple:
		c.wholeTuple = true
		c.d, c.m = spec.D, spec.D
		return nil
	case KindFreq:
		c.cards = append([]int(nil), spec.Cards...)
		c.d, c.m = len(spec.Cards), spec.M
	default:
		c.d, c.m = spec.D, spec.M
	}
	mech, err := MechanismByName(spec.Mech)
	if err != nil {
		return fmt.Errorf("hdr4me: query %q: %w", spec.Name, err)
	}
	c.mech = mech
	return nil
}

// WithSpec configures a session from a QuerySpec — the converse of
// Session.Spec, and the bridge that lets one spec drive both the
// in-process pipeline and a remote query. Later options still apply on
// top (seed, workers, enhancement).
func WithSpec(spec QuerySpec) Option {
	return func(c *sessionConfig) error {
		return applySpec(c, spec)
	}
}

// NewFromSpec builds a Session from a QuerySpec plus optional extra
// options: NewFromSpec(spec, WithSeed(7)) ≡ New(WithSpec(spec),
// WithSeed(7)).
func NewFromSpec(spec QuerySpec, opts ...Option) (*Session, error) {
	return New(append([]Option{WithSpec(spec)}, opts...)...)
}

// Spec reconstructs the QuerySpec describing this session's estimator
// (Name left empty — set it before registering the spec). It errors for
// sessions whose configuration a QuerySpec cannot express: a custom
// injected estimator, or a per-dimension budget allocation — a spec
// built by silently dropping either would stand up a collector that
// debiases with the wrong budgets.
func (s *Session) Spec() (QuerySpec, error) {
	c := &s.cfg
	if c.custom != nil {
		return QuerySpec{}, fmt.Errorf("hdr4me: a custom estimator (kind %s) has no QuerySpec", c.custom.Kind())
	}
	if c.alloc != nil {
		return QuerySpec{}, fmt.Errorf("hdr4me: a per-dimension budget allocation cannot be expressed in a QuerySpec")
	}
	spec := QuerySpec{Eps: c.eps, D: c.d, M: c.m}
	switch {
	case c.wholeTuple:
		spec.Kind = KindWholeTuple
	case c.cards != nil:
		spec.Kind = KindFreq
		spec.D = 0
		spec.Cards = append([]int(nil), c.cards...)
		if c.mech != nil {
			spec.Mech = c.mech.Name()
		}
	default:
		spec.Kind = KindMean
		if c.mech != nil {
			spec.Mech = c.mech.Name()
		}
	}
	return spec.Normalize(), nil
}

// ParseQuerySpec parses the compact textual spec format of the
// ldpcollect -query flag:
//
//	name,kind=mean,mech=piecewise,eps=0.8,d=16,m=8
//	pets,kind=freq,mech=squarewave,eps=0.4,cards=3x4x5,m=2
//	vitals,kind=wholetuple,eps=0.5,d=4
//
// The first comma-separated token is the query name; the rest are k=v
// pairs. kind defaults to mean (freq when cards is given), m to the
// family default.
func ParseQuerySpec(s string) (QuerySpec, error) {
	var spec QuerySpec
	fields := strings.Split(s, ",")
	if fields[0] == "" || strings.Contains(fields[0], "=") {
		return spec, fmt.Errorf("hdr4me: query spec %q must start with the query name", s)
	}
	spec.Name = fields[0]
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok || v == "" {
			return spec, fmt.Errorf("hdr4me: query spec %q: %q is not a k=v pair", s, f)
		}
		var err error
		switch k {
		case "kind":
			spec.Kind = v
		case "mech":
			spec.Mech = v
		case "eps":
			spec.Eps, err = strconv.ParseFloat(v, 64)
		case "d":
			spec.D, err = strconv.Atoi(v)
		case "m":
			spec.M, err = strconv.Atoi(v)
		case "cards":
			for _, c := range strings.Split(v, "x") {
				card, cerr := strconv.Atoi(c)
				if cerr != nil {
					err = cerr
					break
				}
				spec.Cards = append(spec.Cards, card)
			}
		default:
			return spec, fmt.Errorf("hdr4me: query spec %q: unknown key %q", s, k)
		}
		if err != nil {
			return spec, fmt.Errorf("hdr4me: query spec %q: bad %s: %v", s, k, err)
		}
	}
	spec = spec.Normalize()
	return spec, spec.Validate()
}
