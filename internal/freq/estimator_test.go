package freq

import (
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/recal"
)

func newTestFlat(t *testing.T, cards []int, m int, eps float64) *Flat {
	t.Helper()
	f, err := NewFlat(Protocol{Mech: ldp.Laplace{}, Eps: eps, Cards: cards, M: m}, recal.DefaultConfig(recal.RegL1))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFlatObserveRecoversFrequencies(t *testing.T) {
	cards := []int{3, 4}
	ds := NewZipfCat(30_000, cards, 1.2, 7)
	f := newTestFlat(t, cards, 1, 4)
	rng := mathx.NewRNG(17)
	cats := make([]int, len(cards))
	for i := 0; i < ds.NumUsers(); i++ {
		for j := range cats {
			cats[j] = ds.Value(i, j)
		}
		if err := f.Observe(est.Tuple{Cats: cats}, rng); err != nil {
			t.Fatal(err)
		}
	}
	if f.Dims() != 7 {
		t.Fatalf("flat dims %d", f.Dims())
	}
	flat := f.Estimate()
	rows, err := f.Unflatten(flat)
	if err != nil {
		t.Fatal(err)
	}
	ProjectSimplex(rows)
	truth := TrueFreqs(ds)
	for j := range truth {
		for k := range truth[j] {
			if math.Abs(rows[j][k]-truth[j][k]) > 0.1 {
				t.Fatalf("freq[%d][%d] = %v, true %v", j, k, rows[j][k], truth[j][k])
			}
		}
	}
	enhanced, err := f.Enhanced()
	if err != nil {
		t.Fatal(err)
	}
	if len(enhanced) != 7 {
		t.Fatalf("enhanced width %d", len(enhanced))
	}
	// Offsets index the flattened space.
	if f.Offset(0) != 0 || f.Offset(1) != 3 {
		t.Fatalf("offsets %d %d", f.Offset(0), f.Offset(1))
	}
}

func TestFlatAddReportValidates(t *testing.T) {
	f := newTestFlat(t, []int{2, 3}, 1, 2)
	good := est.Report{Dims: []uint32{1}, Values: []float64{0.2, -0.7, 0.1}}
	if err := f.AddReport(good); err != nil {
		t.Fatal(err)
	}
	bad := []est.Report{
		{Dims: []uint32{5}, Values: []float64{1, 1}},          // dim out of range
		{Dims: []uint32{0}, Values: []float64{1, 1, 1}},       // wrong value count
		{Dims: []uint32{0, 1}, Values: []float64{1, 1}},       // more dims than m
		{Dims: []uint32{1, 1}, Values: []float64{1, 1, 1, 1}}, // repeated dim
	}
	for i, rep := range bad {
		if err := f.AddReport(rep); err == nil {
			t.Errorf("bad report %d accepted", i)
		}
	}
	if c := f.Counts(); c[0] != 0 || c[1] != 1 {
		t.Fatalf("counts %v", c)
	}
}

func TestFlatSnapshotMergeRoundTrip(t *testing.T) {
	cards := []int{2, 3}
	a := newTestFlat(t, cards, 2, 2)
	b := newTestFlat(t, cards, 2, 2)
	rng := mathx.NewRNG(5)
	for i := 0; i < 500; i++ {
		if err := a.Observe(est.Tuple{Cats: []int{i % 2, i % 3}}, rng); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Merge(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Estimate(), b.Estimate()
	for i := range ea {
		if math.Abs(ea[i]-eb[i]) > 1e-12 {
			t.Fatalf("merged estimate diverges at %d: %v vs %v", i, ea[i], eb[i])
		}
	}
	// Card mismatch must be rejected.
	other := newTestFlat(t, []int{2, 4}, 2, 2)
	if err := b.Merge(other.Snapshot()); err == nil {
		t.Fatal("card mismatch accepted")
	}
	if err := b.Merge(est.Snapshot{Kind: KindFreq, Cards: cards, Sums: make([]float64, 2), Counts: make([]int64, 2)}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestFlatObserveValidatesTuple(t *testing.T) {
	f := newTestFlat(t, []int{2, 3}, 1, 2)
	rng := mathx.NewRNG(1)
	if err := f.Observe(est.Tuple{Cats: []int{0}}, rng); err == nil {
		t.Fatal("short tuple accepted")
	}
	if err := f.Observe(est.Tuple{Cats: []int{0, 3}}, rng); err == nil {
		t.Fatal("out-of-range category accepted")
	}
}

// Offset returns the flattened index of dimension j's first entry.
func (f *Flat) Offset(j int) int { return f.Aggregator.cal.offsets[j] }
