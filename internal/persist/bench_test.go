package persist

import (
	"fmt"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
)

// BenchmarkSave times one durable checkpoint of a single mean-family
// query at d ∈ {32, 256, 1024}, and of a continual one at d = 1024 with
// 40 frozen epochs: encode, CRC, temp file, fsync, rename and directory
// fsync. The fsyncs dominate, so the figure depends on the filesystem
// under the benchmark's temp directory. b.N counts saves.
func BenchmarkSave(b *testing.B) {
	for _, d := range []int{32, 256, 1024} {
		snap := est.Snapshot{Kind: est.KindMean, Dims: d, Sums: make([]float64, d), Counts: make([]int64, d)}
		for j := range d {
			snap.Sums[j] = float64(j) / 4
			snap.Counts[j] = int64(j)
		}
		benchSave(b, fmt.Sprintf("d=%d", d), State{Queries: []QueryRecord{{
			Spec: est.QuerySpec{Name: "mq", Kind: est.KindMean, Mech: "piecewise", Eps: 0.8, D: d, M: 32},
			Snap: snap,
		}}})
	}
	benchSave(b, "d=1024/epochs=40", wideContinualState())
}

func benchSave(b *testing.B, name string, state State) {
	b.Run(name, func(b *testing.B) {
		dir := b.TempDir()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := Save(dir, state); err != nil {
				b.Fatal(err)
			}
		}
	})
}
