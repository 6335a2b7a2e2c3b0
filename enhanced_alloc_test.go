package hdr4me

import "testing"

// TestEnhancedAllocs pins the query-side HDR4ME path's allocation budget
// at the paper's shape: the enhanced output, written in one pass over
// the fold. The fold is pooled scratch, no per-dimension deviations are
// stored and the §IV moments are cached per budget, so the budget's
// second allocation only covers a pool refill after a GC.
// Under -race, where sync.Pool drops a share of Puts at random, the
// pre-pooling budget of 5 applies instead.
func TestEnhancedAllocs(t *testing.T) {
	budget := 2.0
	if raceEnabled {
		budget = 5
	}
	const d, m = 1024, 32
	s, err := New(WithMechanism(Piecewise()), WithBudget(0.8), WithDims(d, m), WithEnhance(DefaultEnhanceConfig(RegL1)))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 256; u++ {
		if err := s.Observe(goldenTuple(u, d)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.EstimateEnhanced(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("EstimateEnhanced at (d=%d, m=%d): %v allocs/op, want ≤ %v", d, m, allocs, budget)
	}
}
