package highdim

import (
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// The user-side report paths allocate the report's own Dims and Values
// and nothing else: no d-sized sampling scratch, no per-value budget
// arithmetic objects.

func TestMakeReportAllocs(t *testing.T) {
	p := mustProtocol(t, ldp.Piecewise{}, 0.8, 1024, 32)
	agg := NewAggregator(p)
	tup := est.Tuple{Values: goldenRow(0, p.D)}
	rng := mathx.NewRNG(1)
	if _, err := agg.MakeReport(tup, rng); err != nil { // sizes rng's sample table
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := agg.MakeReport(tup, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Aggregator.MakeReport at (1024, 32): %v allocs/op, want ≤ 2", allocs)
	}
}

func TestClientReportAllocs(t *testing.T) {
	p := mustProtocol(t, ldp.Piecewise{}, 0.8, 1024, 32)
	c := NewClient(p, mathx.NewRNG(1))
	row := goldenRow(0, p.D)
	c.Report(row)
	allocs := testing.AllocsPerRun(200, func() { c.Report(row) })
	if allocs > 2 {
		t.Fatalf("Client.Report at (1024, 32): %v allocs/op, want ≤ 2", allocs)
	}
}
