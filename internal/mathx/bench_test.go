package mathx

import (
	"fmt"
	"slices"
	"testing"
)

// sampleShapes are the (d, m) rows of the sampling ledger. At m = 8, 16
// and 32 they sit on both sides of orderSample's bitmap/sort rule
// (⌈d/64⌉ ≤ m²/8): (256,8), (2048,16), (1024,32) and (8192,32) take the
// bitmap; (1024,8), (4096,16), (16384,32), (65536,32) and (2²⁰,32) sort.
// The last row spreads the shuffle's guard bits over a 128 KB bitmap.
var sampleShapes = []struct{ d, m int }{
	{32, 1}, {256, 8}, {1024, 8}, {2048, 16}, {4096, 16},
	{1024, 32}, {8192, 32}, {16384, 32}, {65536, 32}, {1 << 20, 32},
}

// BenchmarkSampleIndices times one user's m-of-d sample (shuffle plus
// ordering) through the public path. Run with -benchmem; a sized dst
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

// BenchmarkSampleOrder times orderSample's two ordering strategies alone
// on the same real (shuffled) samples: these rows are what the
// bitmap/sort threshold in orderSample is read from.
func BenchmarkSampleOrder(b *testing.B) {
	for _, sh := range sampleShapes {
		const pool = 256
		r := NewRNG(2)
		samples := make([][]int, pool)
		for i := range samples {
			samples[i] = r.SampleIndices(sh.d, sh.m, nil)
			s := samples[i]
			r.src.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
		}
		for _, way := range []string{"bitmap", "sort"} {
			b.Run(fmt.Sprintf("d=%d/m=%d/%s", sh.d, sh.m, way), func(b *testing.B) {
				work := make([]int, sh.m)
				for i := 0; i < b.N; i++ {
					copy(work, samples[i%pool])
					if way == "bitmap" {
						r.orderBitmap(work, sh.d)
					} else {
						slices.Sort(work)
					}
				}
			})
		}
	}
}
