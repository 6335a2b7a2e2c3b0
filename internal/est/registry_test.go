package est

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/recal"
)

// stubCal calibrates a fold to its sums: just enough of a family for
// the registry lifecycle tests.
type stubCal struct{}

func (stubCal) MakeReport(t Tuple, _ *mathx.RNG) (Report, error) {
	return Report{Values: t.Values}, nil
}
func (stubCal) Calibrate(dst, sums []float64, _ []int64) { copy(dst, sums) }
func (stubCal) CalibrateWeighted(dst, sums, _ []float64) { copy(dst, sums) }

// newStub returns a one-dimensional "stub" family core over
// round_test.go's noisyKernel.
func newStub() *Family {
	return NewFamily(noisyKernel{}, stubCal{}, Layout{Kind: "stub", Dims: 1, Sums: 1, Counts: 1}, recal.Config{})
}

// stubFactory builds stub cores, optionally failing.
func stubFactory(fail bool) Factory {
	return func(QuerySpec) (Core, error) {
		if fail {
			return nil, fmt.Errorf("stub: construction failed")
		}
		return newStub(), nil
	}
}

// recordingAdmission records Admit/Release calls and can reject.
type recordingAdmission struct {
	mu       sync.Mutex
	admitted []string
	released []string
	reject   bool
}

func (a *recordingAdmission) Admit(spec QuerySpec) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.reject {
		return fmt.Errorf("admission: rejected %q", spec.Name)
	}
	a.admitted = append(a.admitted, spec.Name)
	return nil
}

func (a *recordingAdmission) Release(spec QuerySpec) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.released = append(a.released, spec.Name)
}

func validSpec(name string) QuerySpec {
	return QuerySpec{Name: name, Kind: KindMean, Mech: "piecewise", Eps: 0.5, D: 2}
}

func TestRegistryOpenGetNames(t *testing.T) {
	r := NewRegistry(stubFactory(false), nil)
	q, err := r.Open(validSpec("alpha"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if q.Name() != "alpha" || q.State() != StateOpen {
		t.Fatalf("query = %q/%v, want alpha/open", q.Name(), q.State())
	}
	if got := r.Get("alpha"); got != q {
		t.Fatalf("Get returned a different handle")
	}
	if got := r.Get("beta"); got != nil {
		t.Fatalf("Get of unknown name = %v, want nil", got)
	}
	if _, err := r.Open(validSpec("alpha")); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate Open error = %v", err)
	}
	if _, err := r.Open(validSpec("beta")); err != nil {
		t.Fatalf("Open beta: %v", err)
	}
	if names := r.Names(); len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("Names = %v", names)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}

func TestRegistryOpenValidates(t *testing.T) {
	r := NewRegistry(stubFactory(false), nil)
	bad := []QuerySpec{
		{},                                            // no name
		{Name: "x", Kind: "weird", Eps: 1},            // unknown kind
		{Name: "x", Kind: KindMean, Eps: 0},           // no budget
		{Name: "x", Kind: KindMean, Eps: 1},           // d = 0
		{Name: "x", Kind: KindFreq, Eps: 1},           // no cards
		{Name: "x", Eps: 1, D: 3, Cards: []int{2, 2}}, // d disagrees with cards
	}
	for i, spec := range bad {
		if _, err := r.Open(spec); err == nil {
			t.Errorf("case %d: Open(%+v) succeeded, want error", i, spec)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("registry grew on invalid specs: %v", r.Names())
	}
}

func TestRegistrySendAfterSealRejected(t *testing.T) {
	r := NewRegistry(stubFactory(false), nil)
	q, err := r.Open(validSpec("metrics"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := q.AddReport(Report{}); err != nil {
		t.Fatalf("AddReport while open: %v", err)
	}
	if err := q.Merge(q.Estimator().Snapshot()); err != nil {
		t.Fatalf("Merge while open: %v", err)
	}
	if err := r.Seal("metrics"); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if q.State() != StateSealed {
		t.Fatalf("state after seal = %v", q.State())
	}
	if err := q.AddReport(Report{}); err == nil || !strings.Contains(err.Error(), "sealed") {
		t.Fatalf("AddReport after seal = %v, want sealed rejection", err)
	}
	if err := q.Merge(q.Estimator().Snapshot()); err == nil || !strings.Contains(err.Error(), "sealed") {
		t.Fatalf("Merge after seal = %v, want sealed rejection", err)
	}
	// Reads keep working on sealed queries.
	if got := q.Estimator().Estimate(); len(got) != 1 {
		t.Fatalf("Estimate after seal = %v", got)
	}
	// Sealing twice is a no-op; sealing the unknown errors.
	if err := r.Seal("metrics"); err != nil {
		t.Fatalf("re-Seal: %v", err)
	}
	if err := r.Seal("ghost"); err == nil {
		t.Fatalf("Seal of unknown query succeeded")
	}
}

func TestRegistryDeleteFreesName(t *testing.T) {
	r := NewRegistry(stubFactory(false), nil)
	q, err := r.Open(validSpec("metrics"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := r.Delete("metrics"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if q.State() != StateDeleted {
		t.Fatalf("state after delete = %v", q.State())
	}
	if err := q.AddReport(Report{}); err == nil || !strings.Contains(err.Error(), "deleted") {
		t.Fatalf("AddReport after delete = %v, want deleted rejection", err)
	}
	if r.Get("metrics") != nil {
		t.Fatalf("deleted query still resolvable")
	}
	// The name is free again: a fresh query may claim it.
	q2, err := r.Open(validSpec("metrics"))
	if err != nil {
		t.Fatalf("re-Open after delete: %v", err)
	}
	if q2 == q {
		t.Fatalf("re-Open returned the deleted handle")
	}
	if err := r.Delete("ghost"); err == nil {
		t.Fatalf("Delete of unknown query succeeded")
	}
}

func TestRegistryAdmission(t *testing.T) {
	adm := &recordingAdmission{}
	r := NewRegistry(stubFactory(false), adm)
	if _, err := r.Open(validSpec("a")); err != nil {
		t.Fatalf("Open: %v", err)
	}
	adm.reject = true
	if _, err := r.Open(validSpec("b")); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("Open under rejecting admission = %v", err)
	}
	if r.Get("b") != nil {
		t.Fatalf("rejected query went live")
	}
	adm.reject = false
	if len(adm.admitted) != 1 || adm.admitted[0] != "a" {
		t.Fatalf("admitted = %v", adm.admitted)
	}
	// Delete does NOT release the budget: the collected data's cost is sunk.
	if err := r.Delete("a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if len(adm.released) != 0 {
		t.Fatalf("Delete released budget: %v", adm.released)
	}
}

func TestRegistryFactoryFailureRollsBackAdmission(t *testing.T) {
	adm := &recordingAdmission{}
	r := NewRegistry(stubFactory(true), adm)
	if _, err := r.Open(validSpec("a")); err == nil {
		t.Fatalf("Open with failing factory succeeded")
	}
	if len(adm.released) != 1 || adm.released[0] != "a" {
		t.Fatalf("failed construction did not roll back the charge: %v", adm.released)
	}
	if r.Get("a") != nil {
		t.Fatalf("failed query went live")
	}
}

func TestRegistryAttach(t *testing.T) {
	r := NewRegistry(nil, nil)
	if _, err := r.Open(validSpec("a")); err == nil {
		t.Fatalf("Open without factory succeeded")
	}
	e := newStub()
	q, err := r.Attach(QuerySpec{Name: DefaultName}, e)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if q.Spec().Kind != "stub" {
		t.Fatalf("Attach did not adopt the estimator kind: %q", q.Spec().Kind)
	}
	if r.Default() != q {
		t.Fatalf("Default did not resolve the attached query")
	}
	if _, err := r.Attach(QuerySpec{Name: "x"}, nil); err == nil {
		t.Fatalf("Attach of nil estimator succeeded")
	}
	if _, err := r.Attach(QuerySpec{}, e); err == nil {
		t.Fatalf("Attach without name succeeded")
	}
}

func TestQuerySpecNormalize(t *testing.T) {
	s := QuerySpec{Name: "x", Eps: 1, D: 4}.Normalize()
	if s.Kind != KindMean || s.M != 4 {
		t.Fatalf("mean normalize = %+v", s)
	}
	f := QuerySpec{Name: "x", Eps: 1, Cards: []int{2, 3}}.Normalize()
	if f.Kind != KindFreq || f.M != 2 {
		t.Fatalf("freq normalize = %+v", f)
	}
}
