package mathx

import (
	"fmt"
	"slices"
	"testing"
)

// sampleShapes are the (d, m) rows of the sampling ledger. At m = 8, 16
// and 32 they sit on both sides of orderSample's rule (⌈d/64⌉ ≤ m reads
// the bitmap word by word, a sparser one through its summary): (256,8),
// (1024,32) and (32,1) read word by word, the rest through the summary.
// The last row spreads the sample's bits over a 128 KB bitmap.
var sampleShapes = []struct{ d, m int }{
	{32, 1}, {256, 8}, {1024, 8}, {2048, 8}, {2048, 16}, {4096, 16}, {8192, 16},
	{1024, 32}, {8192, 32}, {16384, 32}, {32768, 32}, {65536, 32}, {1 << 20, 32},
}

// BenchmarkSampleIndices times one user's m-of-d sample (draws, Floyd
// pass and ordering) through the public path. Run with -benchmem; a sized dst
// keeps it at zero allocations.
func BenchmarkSampleIndices(b *testing.B) {
	for _, sh := range sampleShapes {
		b.Run(fmt.Sprintf("d=%d/m=%d", sh.d, sh.m), func(b *testing.B) {
			r := NewRNG(1)
			dst := r.SampleIndices(sh.d, sh.m, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = r.SampleIndices(sh.d, sh.m, dst)
			}
		})
	}
}

// BenchmarkSampleOrder times the ordering alone on real (shuffled)
// samples, orderSample's read-back against slices.Sort: these rows are
// what orderSample's rule is read from. Each op first marks the sample's
// members in the bitmap, as SampleIndices' Floyd pass leaves them, at
// the same cost on both sides; then "bitmap" runs orderSample and "sort"
// sorts the slice and clears the members' bits.
// The pool holds enough distinct samples that the branch predictor
// cannot learn the sequence; with a few hundred it does, and the rows
// then time a replay rather than the fresh samples SampleIndices orders.
func BenchmarkSampleOrder(b *testing.B) {
	for _, sh := range sampleShapes {
		const pool = 4096
		r := NewRNG(2)
		samples := make([][]uint32, pool)
		for i := range samples {
			samples[i] = r.SampleIndices(sh.d, sh.m, nil)
			s := samples[i]
			r.src.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
		}
		for _, way := range []string{"bitmap", "sort"} {
			b.Run(fmt.Sprintf("d=%d/m=%d/%s", sh.d, sh.m, way), func(b *testing.B) {
				work := make([]uint32, sh.m)
				bm := r.bits
				for i := 0; i < b.N; i++ {
					copy(work, samples[i%pool])
					for _, j := range work {
						bm[j>>6] |= 1 << (j & 63)
					}
					if way == "bitmap" {
						r.orderSample(work, sh.d)
					} else {
						slices.Sort(work)
						for _, j := range work {
							bm[j>>6] = 0
						}
					}
				}
			})
		}
	}
}
