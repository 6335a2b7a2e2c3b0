package est

import (
	"context"
	"sync"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Rows fills user i's raw tuple into t. Each worker of a Round owns one
// Tuple and hands it to every call, so a filler allocates t's buffer on
// the first call (while it is nil) and overwrites it after.
type Rows func(i int, t *Tuple)

// ValueRows fills t.Values from a numeric population (a dataset.Dataset).
func ValueRows(ds interface {
	Dim() int
	Row(i int, dst []float64)
}) Rows {
	return func(i int, t *Tuple) {
		if t.Values == nil {
			t.Values = make([]float64, ds.Dim())
		}
		ds.Row(i, t.Values)
	}
}

// CatRows fills t.Cats from a categorical population (a freq.CatDataset).
func CatRows(ds interface {
	Cards() []int
	Value(i, j int) int
}) Rows {
	return func(i int, t *Tuple) {
		if t.Cats == nil {
			t.Cats = make([]int, len(ds.Cards()))
		}
		for j := range t.Cats {
			t.Cats[j] = ds.Value(i, j)
		}
	}
}

// Round runs one collection round over users 0..n−1: the one worker loop
// behind Session.Run, the figure harness and the simulation tests.
//
// workers ≤ 0 means 8, and at most n workers run. Worker w builds its own
// estimator with shard, draws from rng.Child(w), and observes users
// w, w+workers, w+2·workers, … in order, filling each tuple with rows; it
// polls ctx every 32 users. Once every worker has stopped, Round returns
// the first error in worker order, or merges each shard's Snapshot into
// into in worker order. The result is therefore a pure function of rng,
// n and workers. A worker's error or a cancellation leaves into
// untouched.
func Round(ctx context.Context, into Estimator, n, workers int, rng *mathx.RNG, shard func() (Estimator, error), rows Rows) error {
	if workers <= 0 {
		workers = 8
	}
	workers = min(workers, n)
	shards := make([]Estimator, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh, err := shard()
			if err != nil {
				errs[w] = err
				return
			}
			wrng := rng.Child(uint64(w))
			var t Tuple
			for i := w; i < n; i += workers {
				if (i/workers)%32 == 0 && ctx.Err() != nil {
					errs[w] = ctx.Err()
					return
				}
				rows(i, &t)
				if err := sh.Observe(t, wrng); err != nil {
					errs[w] = err
					return
				}
			}
			shards[w] = sh
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, sh := range shards {
		if err := into.Merge(sh.Snapshot()); err != nil {
			return err
		}
	}
	return nil
}
