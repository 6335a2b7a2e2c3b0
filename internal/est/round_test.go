package est

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// noisySum is a minimal striped estimator for round tests: Observe adds
// each value plus unit Laplace noise to its dimension's serial lane.
type noisySum struct {
	d   int
	acc *Ingest[noisyKernel]
	// reject lists the users (by first value) whose tuples Observe fails.
	reject map[float64]bool
}

// noisyKernel folds a report's j-th value into dimension j.
type noisyKernel struct{}

func (noisyKernel) Add(l *Lanes, rep Report) error {
	for j, v := range rep.Values {
		l.Sums[j].Add(v)
		l.Counts[j]++
	}
	return nil
}

func newNoisySum(d int) *noisySum {
	return &noisySum{d: d, acc: NewIngest(noisyKernel{}, DefaultStripeCount, d, d)}
}

func (e *noisySum) Kind() string { return "noisy" }
func (e *noisySum) Dims() int    { return e.d }
func (e *noisySum) Observe(t Tuple, rng *mathx.RNG) error {
	if e.reject[t.Values[0]] {
		return fmt.Errorf("noisy: rejected user %v", t.Values[0])
	}
	noisy := make([]float64, len(t.Values))
	for j, v := range t.Values {
		noisy[j] = v + rng.Laplace(1)
	}
	return e.acc.AddReport(Report{Values: noisy})
}
func (e *noisySum) AddReport(Report) error { return errors.New("noisy: no reports") }
func (e *noisySum) Estimate() []float64    { return e.Snapshot().Sums }
func (e *noisySum) Counts() []int64        { return e.acc.FoldCounts(nil) }
func (e *noisySum) Snapshot() Snapshot {
	sums, counts := e.acc.FoldInto(nil, nil)
	return Snapshot{Kind: "noisy", Dims: e.d, Sums: sums, Counts: counts}
}
func (e *noisySum) Merge(s Snapshot) error {
	if err := CheckMerge(e, s, e.d, e.d); err != nil {
		return err
	}
	e.acc.Merge(s.Sums, s.Counts)
	return nil
}

// rowsOf is a population whose user i holds (i, i/2, i/3, …).
type rowsOf int

func (d rowsOf) Dim() int { return int(d) }
func (d rowsOf) Row(i int, dst []float64) {
	for j := range dst {
		dst[j] = float64(i) / float64(j+1)
	}
}

func runRound(ctx context.Context, into *noisySum, n, workers int, seed uint64) error {
	shard := func() (Estimator, error) { return newNoisySum(into.d), nil }
	return Round(ctx, into, n, workers, mathx.NewRNG(seed), shard, ValueRows(rowsOf(into.d)))
}

func TestRoundBitwiseRepeatable(t *testing.T) {
	const n, d = 1000, 4
	first := newNoisySum(d)
	if err := runRound(context.Background(), first, n, 3, 17); err != nil {
		t.Fatal(err)
	}
	want := first.Snapshot()
	for j, c := range want.Counts {
		if c != n {
			t.Fatalf("dim %d: count %d, want %d", j, c, n)
		}
	}
	for rep := 0; rep < 5; rep++ {
		again := newNoisySum(d)
		if err := runRound(context.Background(), again, n, 3, 17); err != nil {
			t.Fatal(err)
		}
		got := again.Snapshot()
		for j := range want.Sums {
			if math.Float64bits(got.Sums[j]) != math.Float64bits(want.Sums[j]) || got.Counts[j] != want.Counts[j] {
				t.Fatalf("repeat %d, dim %d: sum %v count %d, want %v %d",
					rep, j, got.Sums[j], got.Counts[j], want.Sums[j], want.Counts[j])
			}
		}
	}
}

func TestRoundCanceledMergesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	into := newNoisySum(3)
	if err := runRound(ctx, into, 500, 4, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for j, c := range into.Counts() {
		if c != 0 {
			t.Fatalf("dim %d: canceled round merged %d reports", j, c)
		}
	}
}

func TestRoundFirstErrorInWorkerOrder(t *testing.T) {
	// With 3 workers, user 4 belongs to worker 1 (its second user) and
	// user 2 to worker 2 (its first). Worker 1's error wins, whichever
	// goroutine fails first.
	into := newNoisySum(2)
	shard := func() (Estimator, error) {
		e := newNoisySum(2)
		e.reject = map[float64]bool{2: true, 4: true}
		return e, nil
	}
	err := Round(context.Background(), into, 12, 3, mathx.NewRNG(3), shard, ValueRows(rowsOf(2)))
	if err == nil || err.Error() != "noisy: rejected user 4" {
		t.Fatalf("err = %v, want worker 1's rejection of user 4", err)
	}
	if c := into.Counts()[0]; c != 0 {
		t.Fatalf("failed round merged %d reports", c)
	}
}
