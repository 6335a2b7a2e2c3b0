package epoch

import (
	"fmt"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
)

// BenchmarkEpochIngest is the acceptance benchmark behind
// BENCH_epoch.json: per-report ingest cost through a rotating epoch ring
// versus the bare one-shot aggregator it wraps, over both ingest paths
// (AddReports batches and a striped lane). The ring must add ZERO
// allocations per report — rotation itself allocates one snapshot per
// epoch, amortized to nothing over the epoch's reports, and the
// per-report path is an atomic counter tick.
func BenchmarkEpochIngest(b *testing.B) {
	const benchEvery = 1 << 16 // reports per epoch: rotation exercised, cost amortized

	newAgg := func(b *testing.B) *highdim.Aggregator {
		b.Helper()
		p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 32, 1)
		if err != nil {
			b.Fatal(err)
		}
		return highdim.NewAggregator(p)
	}
	newRing := func(b *testing.B) *Ring {
		b.Helper()
		r, err := New(newAgg(b).Family, Config{Every: benchEvery})
		if err != nil {
			b.Fatal(err)
		}
		return r
	}

	const batch = 256
	rep := est.Report{Dims: []uint32{7}, Values: []float64{0.5}}
	reps := make([]est.Report, batch)
	for i := range reps {
		reps[i] = rep
	}

	for _, lane := range []bool{false, true} {
		path := "batch"
		if lane {
			path = "lane"
		}
		for _, ring := range []bool{false, true} {
			mode := "oneshot"
			if ring {
				mode = "ring"
			}
			b.Run(fmt.Sprintf("%s/%s", mode, path), func(b *testing.B) {
				var target est.Estimator
				if ring {
					target = newRing(b)
				} else {
					target = newAgg(b)
				}
				add := func([]est.Report) (int, error) { return est.AddReports(target, reps) }
				if lane {
					l := est.AcquireLane(target)
					add = l.AddReports
				}
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n += batch {
					if _, err := add(reps); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/s")
			})
		}
	}
}

// BenchmarkWindowEstimate times a sliding-window read at d ∈ {32, 256,
// 1024}: every retained epoch (DefaultRetain frozen plus the live one)
// folded into one snapshot and turned into the family estimate. b.N
// counts window reads.
func BenchmarkWindowEstimate(b *testing.B) {
	for _, d := range []int{32, 256, 1024} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			newAgg := func() *highdim.Aggregator {
				p, err := highdim.NewProtocol(ldp.Laplace{}, 1, d, 1)
				if err != nil {
					b.Fatal(err)
				}
				return highdim.NewAggregator(p)
			}
			r, err := New(newAgg().Family, Config{})
			if err != nil {
				b.Fatal(err)
			}
			rep := est.Report{Dims: []uint32{0}, Values: []float64{0.5}}
			for e := 0; e < DefaultRetain; e++ {
				for j := range d {
					rep.Dims[0] = uint32(j)
					if err := r.AddReport(rep); err != nil {
						b.Fatal(err)
					}
				}
				r.Rotate()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.WindowEstimate(DefaultRetain + 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
