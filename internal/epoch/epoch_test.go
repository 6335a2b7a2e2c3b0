package epoch

import (
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/freq"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/recal"
)

// meanEst builds one mean-family estimator of the fixed test shape.
func meanEst(t *testing.T) *highdim.Aggregator {
	t.Helper()
	p, err := highdim.NewProtocol(ldp.Piecewise{}, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	return highdim.NewAggregator(p)
}

// meanRing wraps a fresh mean estimator (plus scratch) in a ring.
func meanRing(t *testing.T, cfg Config) *Ring {
	t.Helper()
	r, err := New(meanEst(t).Family, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// genReports builds n deterministic perturbed mean reports.
func genReports(t *testing.T, n int, seed uint64) []est.Report {
	t.Helper()
	agg := meanEst(t)
	rng := mathx.NewRNG(seed)
	row := make([]float64, 8)
	reps := make([]est.Report, n)
	for i := range reps {
		for j := range row {
			row[j] = 2*rng.Float64() - 1
		}
		rep, err := agg.MakeReport(est.Tuple{Values: row}, rng)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	return reps
}

// closeEnough allows the documented cross-stripe/cross-epoch fold
// tolerance on sums; counts are always compared exactly.
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestRotationConcurrentWithIngest is the rotation-correctness race
// test: striped ingest concurrent with rotation must conserve every
// report — Σ ring[i] + live == serial total, bitwise on counts, within
// 1e-12 on sums — no matter where the rotations cut the stream.
func TestRotationConcurrentWithIngest(t *testing.T) {
	const workers = 8
	reps := genReports(t, 4000, 11)

	serial := meanEst(t)
	for _, rep := range reps {
		if err := serial.AddReport(rep); err != nil {
			t.Fatal(err)
		}
	}
	want := serial.Snapshot()

	ring := meanRing(t, Config{Retain: 1 << 20})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // rotate continuously while ingest runs
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ring.Rotate()
			}
		}
	}()
	var iwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		iwg.Add(1)
		go func(w int) {
			defer iwg.Done()
			lane := ring.AcquireLane()
			const chunk = 64
			for off := w * chunk; off < len(reps); off += workers * chunk {
				end := off + chunk
				if end > len(reps) {
					end = len(reps)
				}
				if acc, err := lane.AddReports(reps[off:end]); acc != end-off {
					t.Errorf("worker %d: accepted %d of %d: %v", w, acc, end-off, err)
					return
				}
			}
		}(w)
	}
	iwg.Wait()
	close(stop)
	wg.Wait()

	// Fold every frozen epoch plus the live epoch.
	_, entries := ring.State()
	got := ring.Snapshot()
	for _, e := range entries {
		for i, s := range e.Snap.Sums {
			got.Sums[i] += s
		}
		for i, c := range e.Snap.Counts {
			got.Counts[i] += c
		}
	}
	for j := range want.Counts {
		if got.Counts[j] != want.Counts[j] {
			t.Fatalf("dim %d: ring+live count %d != serial %d", j, got.Counts[j], want.Counts[j])
		}
		if !closeEnough(got.Sums[j], want.Sums[j]) {
			t.Fatalf("dim %d: ring+live sum %v != serial %v", j, got.Sums[j], want.Sums[j])
		}
	}
}

// TestWindowEquivalence is the windowed-read acceptance check: a
// windowed estimate over W epochs must equal a one-shot query fed only
// those epochs' reports — counts bitwise, sums and estimates within
// 1e-12.
func TestWindowEquivalence(t *testing.T) {
	const perEpoch = 300
	epochs := [][]est.Report{
		genReports(t, perEpoch, 1),
		genReports(t, perEpoch, 2),
		genReports(t, perEpoch, 3),
		genReports(t, perEpoch, 4),
	}

	ring := meanRing(t, Config{})
	for i, reps := range epochs {
		if acc, err := ring.AddReports(reps); acc != len(reps) {
			t.Fatalf("epoch %d: accepted %d of %d: %v", i, acc, len(reps), err)
		}
		if i < len(epochs)-1 {
			ring.Rotate()
		}
	}
	if cur := ring.Current(); cur != uint64(len(epochs)-1) {
		t.Fatalf("live epoch %d after %d rotations", cur, len(epochs)-1)
	}

	const w = 2 // the last two epochs: epochs[2] (frozen) + epochs[3] (live)
	oneShot := meanEst(t)
	for _, reps := range epochs[len(epochs)-w:] {
		if acc, err := oneShot.AddReports(reps); acc != len(reps) {
			t.Fatalf("one-shot: accepted %d of %d: %v", acc, len(reps), err)
		}
	}
	wantSnap := oneShot.Snapshot()
	gotSnap, err := ring.WindowSnapshot(w)
	if err != nil {
		t.Fatal(err)
	}
	for j := range wantSnap.Counts {
		if gotSnap.Counts[j] != wantSnap.Counts[j] {
			t.Fatalf("dim %d: window count %d != one-shot %d", j, gotSnap.Counts[j], wantSnap.Counts[j])
		}
		if !closeEnough(gotSnap.Sums[j], wantSnap.Sums[j]) {
			t.Fatalf("dim %d: window sum %v != one-shot %v", j, gotSnap.Sums[j], wantSnap.Sums[j])
		}
	}
	got, err := ring.WindowEstimate(w)
	if err != nil {
		t.Fatal(err)
	}
	want := oneShot.Estimate()
	for j := range want {
		if !closeEnough(got[j], want[j]) {
			t.Fatalf("dim %d: window estimate %v != one-shot %v", j, got[j], want[j])
		}
	}

	// A window wider than history clamps to everything retained.
	all, err := ring.WindowSnapshot(100)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, c := range all.Counts {
		n += c
	}
	if n == 0 {
		t.Fatal("clamped window folded nothing")
	}
	if _, err := ring.WindowSnapshot(0); err == nil {
		t.Fatal("window 0 accepted")
	}
}

// TestLatenessPolicies covers the three policies plus the future-epoch
// and compacted-epoch rejections.
func TestLatenessPolicies(t *testing.T) {
	late := genReports(t, 10, 21)

	t.Run("bucket", func(t *testing.T) {
		ring := meanRing(t, Config{Lateness: Bucket})
		if acc, err := ring.AddReports(genReports(t, 50, 22)); acc != 50 {
			t.Fatalf("accepted %d of 50: %v", acc, err)
		}
		ring.Rotate()
		// Tagged with the (now frozen) epoch 0: lands in its bucket.
		if acc, err := ring.AddLate(0, late); acc != len(late) || err != nil {
			t.Fatalf("late bucket add: accepted %d of %d: %v", acc, len(late), err)
		}
		_, entries := ring.State()
		if len(entries) != 1 || entries[0].Snap.Counts[0] == 0 {
			t.Fatalf("frozen epoch did not absorb late reports: %+v", entries)
		}
		var frozen int64
		for _, c := range entries[0].Snap.Counts {
			frozen += c
		}
		var livec int64
		for _, c := range ring.Counts() {
			livec += c
		}
		if livec != 0 {
			t.Fatalf("late reports leaked into the live epoch (%d counts)", livec)
		}
		// Tagged with the live epoch: serialized with rotation, lands live.
		if acc, err := ring.AddLate(1, late); acc != len(late) || err != nil {
			t.Fatalf("live-tagged add: accepted %d of %d: %v", acc, len(late), err)
		}
		// Future epoch: always an error.
		if _, err := ring.AddLate(9, late); err == nil {
			t.Fatal("future epoch accepted")
		}
	})

	t.Run("reject", func(t *testing.T) {
		ring := meanRing(t, Config{Lateness: Reject})
		ring.Rotate()
		if _, err := ring.AddLate(0, late); err == nil {
			t.Fatal("late report accepted under Reject")
		}
	})

	t.Run("current", func(t *testing.T) {
		ring := meanRing(t, Config{Lateness: Current})
		ring.Rotate()
		if acc, err := ring.AddLate(0, late); acc != len(late) || err != nil {
			t.Fatalf("late add under Current: accepted %d: %v", acc, err)
		}
		var livec int64
		for _, c := range ring.Counts() {
			livec += c
		}
		if livec == 0 {
			t.Fatal("Current policy did not fold late reports into the live epoch")
		}
	})

	t.Run("compacted", func(t *testing.T) {
		ring := meanRing(t, Config{Retain: 2, Lateness: Bucket})
		for i := 0; i < 5; i++ {
			ring.Rotate()
		}
		if _, err := ring.AddLate(0, late); err == nil || !strings.Contains(err.Error(), "compacted") {
			t.Fatalf("compacted epoch not refused: %v", err)
		}
		if _, entries := ring.State(); len(entries) != 2 {
			t.Fatalf("retention cap not enforced: %d entries", len(entries))
		}
	})
}

// TestDecayedEstimate checks γ=1 degenerates to the all-epoch window and
// a hand-computed γ-weighted fold matches.
func TestDecayedEstimate(t *testing.T) {
	ring := meanRing(t, Config{})
	for i := 0; i < 3; i++ {
		if acc, err := ring.AddReports(genReports(t, 200, uint64(31+i))); acc != 200 {
			t.Fatalf("epoch %d: accepted %d of 200: %v", i, acc, err)
		}
		if i < 2 {
			ring.Rotate()
		}
	}

	flat, err := ring.WindowEstimate(3)
	if err != nil {
		t.Fatal(err)
	}
	even, err := ring.DecayedEstimate(1)
	if err != nil {
		t.Fatal(err)
	}
	for j := range flat {
		if !closeEnough(even[j], flat[j]) {
			t.Fatalf("dim %d: γ=1 decay %v != window %v", j, even[j], flat[j])
		}
	}

	const gamma = 0.5
	got, err := ring.DecayedEstimate(gamma)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-fold: live (age 0) + frozen epochs weighted γ^age.
	live := ring.Snapshot()
	sums := append([]float64(nil), live.Sums...)
	counts := make([]float64, len(live.Counts))
	for i, c := range live.Counts {
		counts[i] = float64(c)
	}
	cur, entries := ring.State()
	for _, e := range entries {
		w := math.Pow(gamma, float64(cur-e.ID))
		for i, s := range e.Snap.Sums {
			sums[i] += w * s
		}
		for i, c := range e.Snap.Counts {
			counts[i] += w * float64(c)
		}
	}
	for j := range got {
		want := sums[j] / counts[j]
		if !closeEnough(got[j], want) {
			t.Fatalf("dim %d: decay %v != hand fold %v", j, got[j], want)
		}
	}

	for _, bad := range []float64{0, -1, 1.5, math.NaN()} {
		if _, err := ring.DecayedEstimate(bad); err == nil {
			t.Fatalf("decay factor %v accepted", bad)
		}
	}
}

// TestReportCountTrigger: Every=n rotates automatically after n accepted
// reports through any ingest surface, and never on rejected ones.
func TestReportCountTrigger(t *testing.T) {
	ring := meanRing(t, Config{Every: 100})
	lane := ring.AcquireLane()
	reps := genReports(t, 250, 41)
	for off := 0; off < len(reps); off += 50 {
		if acc, err := lane.AddReports(reps[off : off+50]); acc != 50 {
			t.Fatalf("accepted %d of 50: %v", acc, err)
		}
	}
	if cur := ring.Current(); cur != 2 {
		t.Fatalf("250 reports with Every=100 left live epoch at %d, want 2", cur)
	}
	// Malformed reports are rejected by the family and must not tick.
	before := ring.Current()
	if err := ring.AddReport(est.Report{Dims: []uint32{0}, Values: []float64{0.1, 0.2}}); err == nil {
		t.Fatal("malformed report accepted")
	}
	if ring.Current() != before {
		t.Fatal("rejected report advanced the rotation trigger")
	}
}

// TestSetStateRoundTrip checks State/SetState restore the ring exactly
// and refuse malformed states.
func TestSetStateRoundTrip(t *testing.T) {
	ring := meanRing(t, Config{})
	for i := 0; i < 3; i++ {
		if acc, err := ring.AddReports(genReports(t, 100, uint64(51+i))); acc != 100 {
			t.Fatalf("accepted %d of 100: %v", acc, err)
		}
		ring.Rotate()
	}
	cur, entries := ring.State()

	restored := meanRing(t, Config{})
	if err := restored.SetState(cur, entries); err != nil {
		t.Fatal(err)
	}
	rcur, rentries := restored.State()
	if rcur != cur || len(rentries) != len(entries) {
		t.Fatalf("restored %d/%d epochs, want %d/%d", rcur, len(rentries), cur, len(entries))
	}
	for i := range entries {
		if rentries[i].ID != entries[i].ID {
			t.Fatalf("entry %d: id %d != %d", i, rentries[i].ID, entries[i].ID)
		}
		for j := range entries[i].Snap.Sums {
			if rentries[i].Snap.Sums[j] != entries[i].Snap.Sums[j] {
				t.Fatalf("entry %d dim %d: sum not bitwise-equal", i, j)
			}
		}
		for j := range entries[i].Snap.Counts {
			if rentries[i].Snap.Counts[j] != entries[i].Snap.Counts[j] {
				t.Fatalf("entry %d dim %d: count differs", i, j)
			}
		}
	}

	// Wrong shape and non-contiguous ids are refused.
	bad := meanRing(t, Config{})
	if err := bad.SetState(2, []Entry{{ID: 0, Snap: est.Snapshot{Kind: "freq"}}}); err == nil {
		t.Fatal("wrong-kind entry accepted")
	}
	if err := bad.SetState(5, []Entry{{ID: 1, Snap: entries[0].Snap}, {ID: 3, Snap: entries[1].Snap}}); err == nil {
		t.Fatal("non-contiguous entry ids accepted")
	}

	// An entry with the ring's lane widths but other cardinalities is
	// refused, as Merge refuses it.
	f, err := freq.NewFlat(freq.Protocol{Mech: ldp.Laplace{}, Eps: 2, Cards: []int{2, 6}, M: 2}, recal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fring, err := New(f.Family, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cross := est.Snapshot{Kind: f.Kind(), Dims: 8, Cards: []int{4, 4}, Sums: make([]float64, 8), Counts: make([]int64, 2)}
	if fring.Merge(cross) == nil {
		t.Fatal("Merge accepted cards [4 4] into a [2 6] ring")
	}
	if fring.SetState(1, []Entry{{ID: 0, Snap: cross}}) == nil {
		t.Fatal("SetState accepted cards [4 4] into a [2 6] ring")
	}
}

// TestRingDelegation: the ring keeps the wrapped core's surface — kind,
// dims, merge, enhanced error shape — and New rejects a nil core and a
// negative trigger.
func TestRingDelegation(t *testing.T) {
	f, err := freq.NewFlat(freq.Protocol{Mech: ldp.Laplace{}, Eps: 2, Cards: []int{3, 4}, M: 2}, recal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := New(f.Family, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Kind() != f.Kind() || ring.Dims() != f.Dims() {
		t.Fatalf("ring surface %s/%d != inner %s/%d", ring.Kind(), ring.Dims(), f.Kind(), f.Dims())
	}
	if _, err := ring.Enhanced(); err != nil {
		t.Fatalf("freq ring lost the enhanced read path: %v", err)
	}
	rng := mathx.NewRNG(7)
	if err := ring.Observe(est.Tuple{Cats: []int{1, 2}}, rng); err != nil {
		t.Fatal(err)
	}
	ring.Rotate()
	if _, entries := ring.State(); len(entries) != 1 || len(entries[0].Snap.Cards) != 2 {
		t.Fatalf("freq rotation lost the cards: %+v", entries)
	}

	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil inner accepted")
	}
	if _, err := New(meanEst(t).Family, Config{Every: -1}); err == nil {
		t.Fatal("negative trigger accepted")
	}
}

// TestParsePolicy round-trips the flag names.
func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{Bucket, Reject, Current} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
