package hdr4me

import "testing"

// TestEnhancedAllocs pins the query-side HDR4ME path's allocation budget
// at the paper's shape: the snapshot's sums and counts, the naive
// estimate, the per-dimension deviations and the enhanced output — the
// §IV moments are cached per budget, so nothing else is built per query.
func TestEnhancedAllocs(t *testing.T) {
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
	if allocs > 5 {
		t.Fatalf("EstimateEnhanced at (d=%d, m=%d): %v allocs/op, want ≤ 5", d, m, allocs)
	}
}
