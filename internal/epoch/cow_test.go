package epoch

import (
	"math"
	"slices"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/freq"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/recal"
)

// cloneEntries deep-copies entries, as a checkpoint captured before a
// change must still read.
func cloneEntries(entries []Entry) []Entry {
	out := make([]Entry, len(entries))
	for i, e := range entries {
		out[i] = Entry{ID: e.ID, Snap: est.Snapshot{
			Kind: e.Snap.Kind, Dims: e.Snap.Dims,
			Cards: slices.Clone(e.Snap.Cards), Sums: slices.Clone(e.Snap.Sums), Counts: slices.Clone(e.Snap.Counts),
		}}
	}
	return out
}

// sameEntries reports whether two entry lists are bitwise equal.
func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Snap.Kind != b[i].Snap.Kind || !slices.Equal(a[i].Snap.Cards, b[i].Snap.Cards) ||
			!slices.Equal(a[i].Snap.Counts, b[i].Snap.Counts) || len(a[i].Snap.Sums) != len(b[i].Snap.Sums) {
			return false
		}
		for j, s := range a[i].Snap.Sums {
			if math.Float64bits(s) != math.Float64bits(b[i].Snap.Sums[j]) {
				return false
			}
		}
	}
	return true
}

// TestBucketLateIsCopyOnWrite checks that a Bucket-policy late batch
// folded into a frozen epoch leaves the entries an earlier State call
// handed out untouched, shows up in the next State, and sums exactly as
// the in-place fold it replaced (frozen sums plus the batch's drained
// delta, one plain add per entry).
func TestBucketLateIsCopyOnWrite(t *testing.T) {
	ring := meanRing(t, Config{Lateness: Bucket})
	for e := 0; e < 3; e++ {
		if acc, err := ring.AddReports(genReports(t, 40, uint64(60+e))); acc != 40 {
			t.Fatalf("accepted %d of 40: %v", acc, err)
		}
		ring.Rotate()
	}
	_, captured := ring.State()
	before := cloneEntries(captured)

	late := genReports(t, 12, 70)
	if acc, err := ring.AddLate(1, late); acc != len(late) || err != nil {
		t.Fatalf("late bucket add: accepted %d of %d: %v", acc, len(late), err)
	}
	if !sameEntries(captured, before) {
		t.Fatal("a late batch changed the entries an earlier State call handed out")
	}

	ref := meanEst(t)
	if acc, err := ref.AddReports(late); acc != len(late) {
		t.Fatalf("reference batch: accepted %d of %d: %v", acc, len(late), err)
	}
	delta := ref.Rotate()
	want := cloneEntries(before)
	for j := range want[1].Snap.Sums {
		want[1].Snap.Sums[j] += delta.Sums[j]
		want[1].Snap.Counts[j] += delta.Counts[j]
	}
	_, after := ring.State()
	if !sameEntries(after, want) {
		t.Fatal("the next State does not show the late batch folded into epoch 1 (frozen sums plus the batch's delta)")
	}
	if &after[0] == &captured[0] {
		t.Fatal("the late batch wrote into the entry list State had handed out")
	}
}

// TestUnseenFreqDimensionOneEstimate pins one naive estimate for a
// frequency dimension without reports — 1/2 in each entry, the image of
// the released frame's zero mean — whichever read path computes it: the
// live estimate, a one-epoch window, a γ = 1 decayed fold and the
// family's estimate from a snapshot agree bit for bit, on an empty
// cards=3x5 query and on one whose second dimension has seen nothing.
func TestUnseenFreqDimensionOneEstimate(t *testing.T) {
	p := freq.Protocol{Mech: ldp.Laplace{}, Eps: 2, Cards: []int{3, 5}, M: 1}
	mk := func() *freq.Flat {
		f, err := freq.NewFlat(p, recal.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	inner := mk()
	ring, err := New(inner, mk(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(state string, unseen []int) {
		t.Helper()
		live := ring.Estimate()
		window, err := ring.WindowEstimate(1)
		if err != nil {
			t.Fatal(err)
		}
		decayed, err := ring.DecayedEstimate(1)
		if err != nil {
			t.Fatal(err)
		}
		from, err := inner.EstimateFrom(ring.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []struct {
			path string
			vec  []float64
		}{{"WindowEstimate(1)", window}, {"DecayedEstimate(1)", decayed}, {"EstimateFrom(Snapshot())", from}} {
			if len(got.vec) != len(live) {
				t.Fatalf("%s: %s has %d entries, Estimate %d", state, got.path, len(got.vec), len(live))
			}
			for k := range live {
				if math.Float64bits(got.vec[k]) != math.Float64bits(live[k]) {
					t.Fatalf("%s: %s entry %d = %v, Estimate says %v", state, got.path, k, got.vec[k], live[k])
				}
			}
		}
		for _, k := range unseen {
			if live[k] != 0.5 {
				t.Fatalf("%s: unseen entry %d estimates %v, want 1/2", state, k, live[k])
			}
		}
	}
	check("empty", []int{0, 1, 2, 3, 4, 5, 6, 7})
	for i := 0; i < 20; i++ {
		vals := []float64{-1, -1, -1}
		vals[i%3] = 1
		if err := ring.AddReport(est.Report{Dims: []uint32{0}, Values: vals}); err != nil {
			t.Fatal(err)
		}
	}
	check("partially seen", []int{3, 4, 5, 6, 7})
}
