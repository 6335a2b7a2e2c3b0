// Package dataset provides the workloads of the paper's evaluation:
// synthetic Gaussian, Poisson and Uniform datasets with tunable users and
// dimensions, a correlated latent-factor stand-in for the COV-19 dataset,
// and a discretized dataset for the §IV-C case study.
//
// Datasets are streamed: a user's tuple is generated deterministically from
// (dataset seed, user index) on demand, so paper-scale shapes such as
// 200,000 × 5,000 never need to be materialized in memory.
package dataset

import (
	"fmt"
	"sync"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Dataset is a fixed population of n users, each holding a d-dimensional
// numerical tuple with every attribute normalized into [−1, 1].
//
// Row must be deterministic: calling it twice with the same index yields the
// same tuple. Implementations must be safe for concurrent Row calls.
type Dataset interface {
	// Name identifies the dataset in reports and experiment tables.
	Name() string
	// NumUsers returns n.
	NumUsers() int
	// Dim returns d.
	Dim() int
	// Row fills dst (length Dim) with user i's tuple. i ∈ [0, NumUsers).
	Row(i int, dst []float64)
}

// TrueMean streams the whole dataset once and returns the exact per-dimension
// mean θ̄ = (1/n)Σᵢ tᵢ, the ground truth of every experiment. Work is split
// across workers goroutines (0 means GOMAXPROCS-driven default of 8).
func TrueMean(ds Dataset, workers int) []float64 {
	n, d := ds.NumUsers(), ds.Dim()
	if workers <= 0 {
		workers = 8
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return make([]float64, d)
	}
	partial := make([][]mathx.KahanSum, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		partial[w] = make([]mathx.KahanSum, d)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			row := make([]float64, d)
			sums := partial[w]
			for i := w; i < n; i += workers {
				ds.Row(i, row)
				for j, v := range row {
					sums[j].Add(v)
				}
			}
		}(w)
	}
	wg.Wait()
	mean := make([]float64, d)
	for j := 0; j < d; j++ {
		var k mathx.KahanSum
		for w := 0; w < workers; w++ {
			k.Add(partial[w][j].Value())
		}
		mean[j] = k.Value() / float64(n)
	}
	return mean
}

// Memoized wraps a dataset and caches its TrueMean so repeated experiment
// sweeps pay the streaming cost once.
type Memoized struct {
	Dataset
	once sync.Once
	mean []float64
}

// Memoize returns ds with a cached TrueMean.
func Memoize(ds Dataset) *Memoized { return &Memoized{Dataset: ds} }

// TrueMean returns the cached exact mean, computing it on first use.
func (m *Memoized) TrueMean() []float64 {
	m.once.Do(func() { m.mean = TrueMean(m.Dataset, 0) })
	return m.mean
}

// Slice returns a view dataset restricted to the first dims dimensions of ds
// (used by the Fig. 5 dimensionality sweep, which subsamples COV-19 columns).
// If dims exceeds ds.Dim, columns are repeated cyclically — mirroring the
// paper, which "randomly sample[s] some dimensions ... to make up" d=1600.
func Slice(ds Dataset, dims int) Dataset { return &sliced{ds: ds, dims: dims} }

type sliced struct {
	ds   Dataset
	dims int
}

func (s *sliced) Name() string  { return fmt.Sprintf("%s[d=%d]", s.ds.Name(), s.dims) }
func (s *sliced) NumUsers() int { return s.ds.NumUsers() }
func (s *sliced) Dim() int      { return s.dims }

func (s *sliced) Row(i int, dst []float64) {
	base := make([]float64, s.ds.Dim())
	s.ds.Row(i, base)
	for j := 0; j < s.dims; j++ {
		dst[j] = base[j%len(base)]
	}
}
