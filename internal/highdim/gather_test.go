package highdim

import (
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// TestReportGatherChunks: MakeReport and Client.Report check every
// sampled value before perturbing any, then perturb from the tuple, the
// uniform budget in the Piecewise kernel's draw chunks of 32. For m from
// 1 past several chunks the reports must equal the one-loop reference
// (sample, then perturb each sampled value in dimension order) bit for
// bit, under both a uniform and an allocated budget.
func TestReportGatherChunks(t *testing.T) {
	for _, m := range []int{1, 63, 64, 65, 130} {
		p := mustProtocol(t, ldp.Piecewise{}, 0.8, 200, m)
		weights := make([]float64, p.D)
		for j := range weights {
			weights[j] = 1 + float64(j%7)
		}
		alloc, err := WeightedAllocation(p.Eps, weights, p.M)
		if err != nil {
			t.Fatal(err)
		}
		allocated, err := NewAllocatedAggregator(p, alloc)
		if err != nil {
			t.Fatal(err)
		}
		uniform := NewAggregator(p)
		for u := 0; u < 20; u++ {
			row := goldenRow(u, p.D)
			for _, agg := range []*Aggregator{uniform, allocated} {
				rep, err := agg.MakeReport(est.Tuple{Values: row}, mathx.NewRNG(uint64(u)))
				if err != nil {
					t.Fatal(err)
				}
				ref := mathx.NewRNG(uint64(u))
				for i, j := range ref.SampleIndices(p.D, p.M, nil) {
					want := perturberAt(agg.cal.pert, j).Perturb(ref, row[j])
					if rep.Dims[i] != j || math.Float64bits(rep.Values[i]) != math.Float64bits(want) {
						t.Fatalf("m=%d user %d slot %d: MakeReport (%d, %v), reference (%d, %v)",
							m, u, i, rep.Dims[i], rep.Values[i], j, want)
					}
				}
			}
			rep := NewClient(p, mathx.NewRNG(uint64(u))).Report(row)
			ref := mathx.NewRNG(uint64(u))
			pert := ldp.At(p.Mech, p.EpsPerDim())
			for i, j := range ref.SampleIndices(p.D, p.M, nil) {
				want := pert.Perturb(ref, row[j])
				if rep.Dims[i] != j || math.Float64bits(rep.Values[i]) != math.Float64bits(want) {
					t.Fatalf("m=%d user %d slot %d: Client.Report (%d, %v), reference (%d, %v)",
						m, u, i, rep.Dims[i], rep.Values[i], j, want)
				}
			}
		}
	}
}

// perturberAt returns dimension j's user-side randomizer from pert, which
// holds one per dimension (bound to EpsFor(j)) under an allocation and a
// single shared one otherwise.
func perturberAt(pert []ldp.Perturber, j uint32) ldp.Perturber {
	if len(pert) > 1 {
		return pert[j]
	}
	return pert[0]
}
