package hdr4me

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func continualSession(t *testing.T, opts ...Option) *Session {
	t.Helper()
	s, err := New(append([]Option{
		WithMechanism(Piecewise()),
		WithBudget(1.0),
		WithDims(4, 4),
		WithSeed(11),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestContinualSessionSurface(t *testing.T) {
	s := continualSession(t, WithWindow(2), WithDecay(0.5))
	if !s.Continual() || s.CurrentEpoch() != 0 {
		t.Fatalf("continual session at epoch %d (continual=%v)", s.CurrentEpoch(), s.Continual())
	}
	if s.ServingEstimator() == s.Estimator() {
		t.Fatal("serving estimator is the bare inner estimator, not the ring")
	}
	// A one-shot twin with the same seed sees the same observations in the
	// same order, so its randomized reports are identical bit for bit.
	twin := continualSession(t)
	tup := Tuple{Values: []float64{0.5, -0.25, 0.75, 0.0}}
	observeBoth := func(n int) {
		for i := 0; i < n; i++ {
			if err := s.Observe(tup); err != nil {
				t.Fatal(err)
			}
			if err := twin.Observe(tup); err != nil {
				t.Fatal(err)
			}
		}
	}
	observeBoth(40)
	next, err := s.Rotate()
	if err != nil || next != 1 {
		t.Fatalf("Rotate = %d, %v; want epoch 1", next, err)
	}
	observeBoth(40)
	// The 2-epoch window covers every report observed, so it must match
	// the one-shot twin's estimate (up to summation order: the window sums
	// two per-epoch partials where the twin sums one running total).
	win, err := s.WindowEstimate(0) // 0: the WithWindow default
	if err != nil {
		t.Fatal(err)
	}
	oneShot := twin.Estimate()
	if len(win) != len(oneShot) {
		t.Fatalf("window estimate has %d dims, twin %d", len(win), len(oneShot))
	}
	for j := range win {
		if math.Abs(win[j]-oneShot[j]) > 1e-12 {
			t.Fatalf("window estimate %v != one-shot %v", win, oneShot)
		}
	}
	if _, err := s.DecayedEstimate(0); err != nil { // WithDecay default
		t.Fatal(err)
	}
	if _, err := s.DecayedEstimate(2.0); err == nil {
		t.Fatal("decay rate 2.0 accepted")
	}

	// One-shot sessions refuse the continual surface.
	if twin.Continual() {
		t.Fatal("plain session claims to be continual")
	}
	for _, err := range []error{
		func() error { _, err := twin.Rotate(); return err }(),
		func() error { _, err := twin.WindowEstimate(2); return err }(),
		func() error { _, err := twin.DecayedEstimate(0.5); return err }(),
	} {
		if err == nil {
			t.Fatal("one-shot session served a continual call")
		}
	}
}

func TestEpochEveryTriggersRotation(t *testing.T) {
	s := continualSession(t, WithEpochEvery(25))
	tup := Tuple{Values: []float64{0.5, -0.25, 0.75, 0.0}}
	for i := 0; i < 60; i++ {
		if err := s.Observe(tup); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.CurrentEpoch(); got != 2 {
		t.Fatalf("60 reports at 25/epoch left the session at epoch %d, want 2", got)
	}
}

func TestEpochDurationTicker(t *testing.T) {
	s := continualSession(t, WithEpochDuration(5*time.Millisecond))
	deadline := time.Now().Add(2 * time.Second)
	for s.CurrentEpoch() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("wall-clock ticker never rotated")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cur := s.CurrentEpoch()
	time.Sleep(20 * time.Millisecond)
	if got := s.CurrentEpoch(); got != cur {
		t.Fatalf("ring rotated from %d to %d after Close", cur, got)
	}
}

func TestEpochOptionsRejectBadValues(t *testing.T) {
	for name, opt := range map[string]Option{
		"duration": WithEpochDuration(0),
		"every":    WithEpochEvery(0),
		"window":   WithWindow(0),
		"decay-0":  WithDecay(0),
		"decay-2":  WithDecay(2),
		"lateness": WithLateness(LatenessPolicy(9)),
		"retain":   WithEpochRetain(0),
	} {
		if _, err := New(WithMechanism(Piecewise()), WithBudget(1), WithDims(2, 2), opt); err == nil {
			t.Errorf("%s: bad value accepted", name)
		}
	}
}

func TestContinualCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithWindow(3), WithStateDir(dir)}
	s := continualSession(t, opts...)
	tup := Tuple{Values: []float64{0.5, -0.25, 0.75, 0.0}}
	for e := 0; e < 3; e++ {
		for i := 0; i < 20; i++ {
			if err := s.Observe(tup); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}

	r := continualSession(t, opts...)
	restored, err := r.RestoreCheckpoint()
	if err != nil || !restored {
		t.Fatalf("RestoreCheckpoint = %v, %v", restored, err)
	}
	if r.CurrentEpoch() != s.CurrentEpoch() {
		t.Fatalf("restored epoch %d, want %d", r.CurrentEpoch(), s.CurrentEpoch())
	}
	for _, w := range []int{1, 2, 3} {
		want, err := s.WindowEstimate(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.WindowEstimate(w)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("window %d: restored %v, want %v", w, got, want)
			}
		}
	}

	// A continual checkpoint refuses to restore into a one-shot session.
	plain := continualSession(t, WithStateDir(dir))
	if _, err := plain.RestoreCheckpoint(); err == nil ||
		!strings.Contains(err.Error(), "continual") {
		t.Fatalf("one-shot session swallowed a continual checkpoint: %v", err)
	}
}

func meanSpec(name string, eps float64) QuerySpec {
	return QuerySpec{Name: name, Kind: KindMean, Mech: "piecewise", Eps: eps, D: 2, M: 2}
}

func TestEpochRegistryBudgetRenewal(t *testing.T) {
	acct, err := NewAccountant(2.0)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewEpochQueryRegistry(acct, EpochConfig{Horizon: 2})
	if err != nil {
		t.Fatal(err)
	}
	// ε=0.8 over a 2-epoch horizon holds 1.6 of the 2.0 budget.
	if _, err := reg.Open(meanSpec("a", 0.8)); err != nil {
		t.Fatal(err)
	}
	if got := acct.Spent(); math.Abs(got-1.6) > 1e-12 {
		t.Fatalf("spent %g, want 1.6 (h*eps)", got)
	}
	// Another ε=0.8 would hold 3.2 total: rejected.
	if _, err := reg.Open(meanSpec("b", 0.8)); err == nil {
		t.Fatal("over-horizon query admitted")
	}
	// Deleting starts the decay; two renewals fully release the charge.
	if err := reg.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if got := acct.Spent(); math.Abs(got-1.6) > 1e-12 {
		t.Fatalf("spent %g right after delete, want 1.6 (tail still holds h*eps)", got)
	}
	RotateCollector(reg, acct)
	if got := acct.Spent(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("spent %g after one renewal, want 0.8", got)
	}
	RotateCollector(reg, acct)
	if got := acct.Spent(); got != 0 {
		t.Fatalf("spent %g after the horizon elapsed, want 0", got)
	}
	if acct.Epoch() != 2 {
		t.Fatalf("ledger at epoch %d, want 2", acct.Epoch())
	}
	if _, err := reg.Open(meanSpec("b", 0.8)); err != nil {
		t.Fatalf("renewed budget still refuses: %v", err)
	}

	// RotateCollector rotates the live queries' rings alongside the ledger.
	RotateCollector(reg, acct)
	ring, ok := reg.Get("b").Estimator().(interface{ Current() uint64 })
	if !ok || ring.Current() != 1 {
		t.Fatal("query b's ring did not rotate with the collector")
	}

	// Renewal needs an accountant; a used ledger refuses to switch modes.
	if _, err := NewEpochQueryRegistry(nil, EpochConfig{Horizon: 2}); err == nil {
		t.Fatal("renewal horizon without an accountant accepted")
	}
	used, _ := NewAccountant(1.0)
	usedReg := NewQueryRegistry(used)
	if _, err := usedReg.Open(meanSpec("x", 0.5)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEpochQueryRegistry(used, EpochConfig{Horizon: 2}); err == nil {
		t.Fatal("renewal enabled on a ledger with existing spend")
	}
}

func TestRenewalLedgerSurvivesRestore(t *testing.T) {
	dir := t.TempDir()
	acct, _ := NewAccountant(2.0)
	reg, err := NewEpochQueryRegistry(acct, EpochConfig{Horizon: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open(meanSpec("keep", 0.5)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open(meanSpec("gone", 0.4)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	RotateCollector(reg, acct) // "gone"'s retired tail decays 0.8 -> 0.4
	if err := SaveCollectorState(dir, reg, acct); err != nil {
		t.Fatal(err)
	}
	wantSpent := acct.Spent() // 2*0.5 live + 0.4 tail = 1.4

	reAcct, _ := NewAccountant(2.0)
	reReg, err := NewEpochQueryRegistry(reAcct, EpochConfig{Horizon: 2})
	if err != nil {
		t.Fatal(err)
	}
	n, err := RestoreCollectorState(dir, reReg, reAcct)
	if err != nil || n != 1 {
		t.Fatalf("RestoreCollectorState = %d, %v", n, err)
	}
	if got := reAcct.Spent(); math.Abs(got-wantSpent) > 1e-12 {
		t.Fatalf("restored spent %g, want %g", got, wantSpent)
	}
	if reAcct.Epoch() != 1 || reAcct.Horizon() != 2 {
		t.Fatalf("restored ledger at epoch %d horizon %d, want 1/2", reAcct.Epoch(), reAcct.Horizon())
	}
	// One more renewal expires the restored tail exactly as it would have
	// without the crash.
	RotateCollector(reReg, reAcct)
	if got := reAcct.Spent(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("spent %g after post-restore renewal, want 1.0", got)
	}

	// A mismatched configured horizon is refused outright.
	mis, _ := NewAccountant(2.0)
	misReg, err := NewEpochQueryRegistry(mis, EpochConfig{Horizon: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreCollectorState(dir, misReg, mis); err == nil ||
		!strings.Contains(err.Error(), "horizon") {
		t.Fatalf("horizon mismatch restored: %v", err)
	}
}

// TestAccountantConcurrentOpenRollback races three over-budget opens:
// whatever the interleaving, the ledger must end holding exactly one
// admissible spend — a failed Admit holds nothing, a failed
// construction rolls its charge back.
func TestAccountantConcurrentOpenRollback(t *testing.T) {
	for round := 0; round < 20; round++ {
		acct, err := NewAccountant(1.0)
		if err != nil {
			t.Fatal(err)
		}
		reg := NewQueryRegistry(acct)
		specs := []QuerySpec{meanSpec("big1", 0.9), meanSpec("ok", 0.9), meanSpec("big2", 0.9)}
		errs := make([]error, len(specs))
		var wg sync.WaitGroup
		for i := range specs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = reg.Open(specs[i])
			}(i)
		}
		wg.Wait()
		admitted := 0
		for _, e := range errs {
			if e == nil {
				admitted++
			}
		}
		if admitted != 1 {
			t.Fatalf("round %d: %d of 3 eps=0.9 opens admitted against a 1.0 budget, want exactly 1 (%v)",
				round, admitted, errs)
		}
		if got := acct.Spent(); got != 0.9 {
			t.Fatalf("round %d: ledger holds %g, want exactly the one admitted spend 0.9", round, got)
		}
	}
}

// A spec that passes validation but whose estimator construction fails
// (unknown mechanism) must leave no charge behind.
func TestAccountantRollbackOnFactoryFailure(t *testing.T) {
	acct, err := NewAccountant(1.0)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewQueryRegistry(acct)
	bad := meanSpec("bad", 0.5)
	bad.Mech = "no-such-mech"
	if _, err := reg.Open(bad); err == nil {
		t.Fatal("unknown mechanism built an estimator")
	}
	if got := acct.Spent(); got != 0 {
		t.Fatalf("failed construction left %g on the ledger", got)
	}
	// The full budget is still there for a real query.
	if _, err := reg.Open(meanSpec("good", 1.0)); err != nil {
		t.Fatalf("budget not rolled back: %v", err)
	}
}
