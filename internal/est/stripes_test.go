package est

import (
	"sync"
	"testing"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// sumKernel is the test family: a report adds its one value to sum lane
// 0 and counts once.
type sumKernel struct{}

func (sumKernel) Add(l *Lanes, rep Report) error {
	l.Sums[0].Add(rep.Values[0])
	l.Counts[0]++
	return nil
}

// newSums returns an n-stripe test-family core with one sum and one
// count lane.
func newSums(n int) *Ingest[sumKernel] { return NewIngest(sumKernel{}, n, 1, 1) }

// addAt adds v through a lane pinned to stripe i.
func addAt(s *Ingest[sumKernel], i int, v float64) {
	if err := (stripeLane[sumKernel]{in: s, i: i}).AddReport(Report{Values: []float64{v}}); err != nil {
		panic(err)
	}
}

func TestStripesAcquireRoundRobin(t *testing.T) {
	s := newSums(4)
	for want := 0; want < 9; want++ {
		if got := s.Acquire(); got != want%4 {
			t.Fatalf("acquire %d = stripe %d, want %d", want, got, want%4)
		}
	}
	if newSums(0).Count() != DefaultStripeCount {
		t.Fatalf("n<1 must select DefaultStripeCount")
	}
}

// TestStripesSingleStripeBitwise: a caller that only touches one stripe
// must fold to the bitwise-identical sum a plain serial KahanSum
// produces — untouched stripes contribute exact zeros. This is the
// invariant that keeps striping externally invisible to single-connection
// ingest.
func TestStripesSingleStripeBitwise(t *testing.T) {
	vals := []float64{0.1, -0.7, 1e-17, 3.14159, -1e17, 1e17, 0.3}
	var serial mathx.KahanSum
	for _, v := range vals {
		serial.Add(v)
	}
	for _, lane := range []int{0, 7, 15} {
		s := newSums(16)
		for _, v := range vals {
			addAt(s, lane, v)
		}
		sums, counts := s.FoldInto(nil, nil)
		if sums[0] != serial.Value() {
			t.Fatalf("stripe %d fold = %v, serial = %v (must be bitwise equal)", lane, sums[0], serial.Value())
		}
		if counts[0] != int64(len(vals)) {
			t.Fatalf("stripe %d count = %d, want %d", lane, counts[0], len(vals))
		}
	}
}

// TestStripesBaseFoldsFirst: the merge lane folds before the report
// stripes, by construction of the fixed fold order.
func TestStripesBaseFoldsFirst(t *testing.T) {
	s := newSums(2)
	s.Merge([]float64{2}, []int64{5})
	addAt(s, 1, 3)
	sums, counts := s.FoldInto(nil, nil)
	if sums[0] != 5 || counts[0] != 6 {
		t.Fatalf("fold = %v/%v, want 5/6", sums[0], counts[0])
	}
	if c := s.FoldCounts(nil); c[0] != 6 {
		t.Fatalf("FoldCounts = %d, want 6", c[0])
	}
}

// TestStripesConcurrentFoldConsistency hammers stripes from many
// goroutines while folding concurrently: every fold must see internally
// consistent state (count equals sum when every add contributes 1), and
// the final fold must be exact. Run with -race.
func TestStripesConcurrentFoldConsistency(t *testing.T) {
	const (
		workers = 8
		adds    = 400
	)
	s := newSums(4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := s.AcquireLane()
			for i := 0; i < adds; i++ {
				if err := lane.AddReport(Report{Values: []float64{1}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var folds sync.WaitGroup
	folds.Add(1)
	go func() {
		defer folds.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sums, counts := s.FoldInto(nil, nil)
			if sums[0] != float64(counts[0]) {
				t.Errorf("torn fold: sum %v != count %d", sums[0], counts[0])
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	folds.Wait()
	sums, counts := s.FoldInto(nil, nil)
	if want := float64(workers * adds); sums[0] != want || counts[0] != int64(want) {
		t.Fatalf("final fold = %v/%d, want %v", sums[0], counts[0], want)
	}
}

// Count returns the number of stripes.
func (s *Stripes) Count() int { return len(s.lanes) }
