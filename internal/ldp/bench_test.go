package ldp

import (
	"slices"
	"testing"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// perturbSink keeps the benchmarked perturbations live.
var perturbSink float64

// BenchmarkPerturbAt times one perturbed value through ldp.At for every
// registered mechanism at the paper's per-value budget ε/m = 0.8/32 =
// 0.025, cycling over 64 inputs spread evenly across [−1, 1].
func BenchmarkPerturbAt(b *testing.B) {
	const eps = 0.025
	var in [64]float64
	for i := range in {
		in[i] = -1 + 2*float64(i)/float64(len(in)-1)
	}
	reg := Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			p, rng := At(reg[name], eps), mathx.NewRNG(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				perturbSink = p.Perturb(rng, in[i&(len(in)-1)])
			}
		})
	}
}
