package hdr4me

import "testing"

// TestSessionReportAllocs pins the user-side report path's allocation
// budget: a report's own Dims and Values and nothing else — no per-call
// RNG, no d-sized sampling scratch.
func TestSessionReportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const d, m = 1024, 32
	s, err := New(WithMechanism(Piecewise()), WithBudget(0.8), WithDims(d, m))
	if err != nil {
		t.Fatal(err)
	}
	tup := goldenTuple(0, d)
	if _, err := s.Report(tup); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Report(tup); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Session.Report at (d=%d, m=%d): %v allocs/op, want ≤ 2", d, m, allocs)
	}
}
