package hdr4me

import (
	"math"
	"sync"
	"testing"

	"github.com/hdr4me/hdr4me/internal/epoch"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// lateRing opens a small continual mean query with the Bucket lateness
// policy and three frozen epochs of reports.
func lateRing(t *testing.T) (*Registry, *epoch.Ring) {
	t.Helper()
	reg, err := NewEpochQueryRegistry(nil, EpochConfig{Retain: 8, Lateness: LateBucket})
	if err != nil {
		t.Fatal(err)
	}
	q, err := reg.Open(QuerySpec{Name: DefaultQueryName, Kind: est.KindMean, Mech: "piecewise", Eps: 0.8, D: 16, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	ring := q.Estimator().(*epoch.Ring)
	for e := 0; e < 4; e++ {
		fillQuery(t, reg.Get(DefaultQueryName).Spec(), q, uint64(200+e), 50)
		if e < 3 {
			ring.Rotate()
		}
	}
	return reg, ring
}

// lateReports perturbs n seeded tuples into reports for lateRing's query.
func lateReports(t *testing.T, reg *Registry, seed uint64, n int) []Report {
	t.Helper()
	s, err := NewFromSpec(reg.Get(DefaultQueryName).Spec(), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(seed)
	reps := make([]Report, n)
	for i := range reps {
		row := make([]float64, 16)
		for j := range row {
			row[j] = 2*rng.Float64() - 1
		}
		if reps[i], err = s.Report(Tuple{Values: row}); err != nil {
			t.Fatal(err)
		}
	}
	return reps
}

// sameRingState reports whether two rings hold bitwise-equal frozen
// epochs and live epoch ids.
func sameRingState(a, b *epoch.Ring) bool {
	acur, ae := a.State()
	bcur, be := b.State()
	if acur != bcur || len(ae) != len(be) {
		return false
	}
	for i := range ae {
		if ae[i].ID != be[i].ID || !sameBits(ae[i].Snap.Sums, be[i].Snap.Sums) || !sameCounts(ae[i].Snap.Counts, be[i].Snap.Counts) {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameCounts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// restoreRing restores dir's checkpoint into a fresh continual registry
// and returns the default query's ring.
func restoreRing(t *testing.T, dir string) *epoch.Ring {
	t.Helper()
	reg, err := NewEpochQueryRegistry(nil, EpochConfig{Retain: 8, Lateness: LateBucket})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := RestoreCollectorState(dir, reg, nil); err != nil || n != 1 {
		t.Fatalf("RestoreCollectorState: %d queries, %v", n, err)
	}
	return reg.Get(DefaultQueryName).Estimator().(*epoch.Ring)
}

// TestLateBucketCheckpointRoundTrip saves a ring whose frozen epochs
// took late batches, both before and after a checkpoint shared them,
// and checks that each restore reproduces the ring bitwise: its frozen
// epochs, its window and decayed estimates.
func TestLateBucketCheckpointRoundTrip(t *testing.T) {
	reg, ring := lateRing(t)
	dir := t.TempDir()
	for round, id := range []uint64{1, 0, 2} {
		if acc, err := ring.AddLate(id, lateReports(t, reg, uint64(300+round), 9)); acc != 9 || err != nil {
			t.Fatalf("late batch into epoch %d: accepted %d of 9: %v", id, acc, err)
		}
		if err := SaveCollectorState(dir, reg, nil); err != nil {
			t.Fatal(err)
		}
		restored := restoreRing(t, dir)
		if !sameRingState(ring, restored) {
			t.Fatalf("round %d: restored frozen epochs differ from the ring's", round)
		}
		for _, w := range []int{1, 2, 4} {
			want, err := ring.WindowEstimate(w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.WindowEstimate(w)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("round %d: restored %d-epoch window estimate differs", round, w)
			}
		}
		want, _ := ring.DecayedEstimate(0.5)
		if got, _ := restored.DecayedEstimate(0.5); !sameBits(got, want) {
			t.Fatalf("round %d: restored decayed estimate differs", round)
		}
	}
}

// TestRingLateReadsCheckpointsConcurrently runs Bucket-policy late
// batches, window and decayed reads, rotations and collector
// checkpoints on one ring at once (run it with -race): checkpoints
// share the frozen epochs the late batches replace. The last
// checkpoint, taken after everything settled, restores bitwise.
func TestRingLateReadsCheckpointsConcurrently(t *testing.T) {
	reg, ring := lateRing(t)
	dir := t.TempDir()
	batches := make([][]Report, 8)
	for i := range batches {
		batches[i] = lateReports(t, reg, uint64(400+i), 5)
	}
	const rounds = 30
	var wg sync.WaitGroup
	run := func(name string, fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := fn(i); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
			}
		}()
	}
	run("late", func(i int) error {
		cur := ring.Current()
		_, err := ring.AddLate(cur-1-uint64(i%2), batches[i%len(batches)])
		return err
	})
	run("window", func(int) error { _, err := ring.WindowEstimate(3); return err })
	run("decayed", func(int) error { _, err := ring.DecayedEstimate(0.7); return err })
	run("checkpoint", func(int) error { return SaveCollectorState(t.TempDir(), reg, nil) })
	run("rotate", func(i int) error {
		if i%10 == 9 {
			ring.Rotate()
		}
		return nil
	})
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := SaveCollectorState(dir, reg, nil); err != nil {
		t.Fatal(err)
	}
	if !sameRingState(ring, restoreRing(t, dir)) {
		t.Fatal("the checkpoint taken after concurrent late batches does not restore the ring bitwise")
	}
}
