package transport

import (
	"math"
	"strings"
	"testing"

	"github.com/hdr4me/hdr4me/internal/epoch"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/highdim"
)

// epochFactory builds epoch rings around mean aggregators: the factory a
// continual-collection registry would install.
func epochFactory(t *testing.T, cfg epoch.Config) est.Factory {
	t.Helper()
	mk := meanFactory(t)
	return func(spec est.QuerySpec) (est.Core, error) {
		inner, err := mk(spec)
		if err != nil {
			return nil, err
		}
		return epoch.New(inner.(*highdim.Aggregator).Family, cfg)
	}
}

func sameVec(a, b []float64) bool {
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

// TestEpochFramesOverWire drives the continual-collection wire surface
// end to end: ROTATE freezes epochs, EPOCH buckets late reports, WINDOW
// and DECAY serve derived estimates bitwise-equal to the serving ring's
// own, and QUERYINFO reports the live epoch.
func TestEpochFramesOverWire(t *testing.T) {
	reg := est.NewRegistry(epochFactory(t, epoch.Config{}), nil)
	if _, err := reg.Open(est.QuerySpec{Name: "cont", Kind: est.KindMean, Eps: 1, D: 2}); err != nil {
		t.Fatal(err)
	}
	addr := listenRegistry(t, reg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	q := cl.Query("cont")

	if _, err := q.SendBatch([]est.Report{rep2(0.5, -0.5), rep2(0.25, 0.75)}); err != nil {
		t.Fatal(err)
	}
	next, err := q.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if next != 1 {
		t.Fatalf("first rotation made epoch %d the live one, want 1", next)
	}

	// Late ingest into the frozen epoch 0, singly and batched.
	if err := q.SendEpoch(0, rep2(0.1, 0.2)); err != nil {
		t.Fatal(err)
	}
	if acc, err := q.SendBatchEpoch(0, []est.Report{rep2(-0.3, 0.4)}); err != nil || acc != 1 {
		t.Fatalf("late batch: accepted %d, err %v", acc, err)
	}
	// Epoch-tagged ingest into the live epoch works too.
	if acc, err := q.SendBatchEpoch(1, []est.Report{rep2(0.9, -0.9)}); err != nil || acc != 1 {
		t.Fatalf("live-tagged batch: accepted %d, err %v", acc, err)
	}
	// A future epoch id is refused: single reports NACK, batch reports
	// are skipped (accepted 0), and the connection survives both.
	if err := q.SendEpoch(7, rep2(0, 0)); err == nil {
		t.Fatal("future-epoch report accepted")
	}
	if acc, err := q.SendBatchEpoch(7, []est.Report{rep2(0, 0)}); err != nil || acc != 0 {
		t.Fatalf("future-epoch batch: accepted %d, err %v", acc, err)
	}

	ring := reg.Get("cont").Estimator().(*epoch.Ring)
	for _, w := range []int{1, 2} {
		got, err := q.WindowEstimate(w)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		want, err := ring.WindowEstimate(w)
		if err != nil {
			t.Fatal(err)
		}
		if !sameVec(got, want) {
			t.Fatalf("window %d over the wire: %v, ring serves %v", w, got, want)
		}
	}
	got, err := q.DecayedEstimate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ring.DecayedEstimate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !sameVec(got, want) {
		t.Fatalf("decayed estimate over the wire: %v, ring serves %v", got, want)
	}
	if _, err := q.DecayedEstimate(1.5); err == nil {
		t.Fatal("γ=1.5 accepted")
	}

	info, err := cl.QueryInfo("cont")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Epochs || info.Epoch != 1 || info.State != est.StateOpen || info.Gen == 0 {
		t.Fatalf("query info = %+v, want open continual query at epoch 1 with a live generation", info)
	}
	if _, err := cl.QueryInfo("missing"); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Fatalf("unknown-name info = %v, want rejection", err)
	}
}

// TestEpochFramesRequireContinualQuery pins the rejection paths: every
// continual exchange NACKs against a one-shot query — and against a
// missing one — without desyncing the connection.
func TestEpochFramesRequireContinualQuery(t *testing.T) {
	reg := est.NewRegistry(meanFactory(t), nil)
	if _, err := reg.Open(est.QuerySpec{Name: "oneshot", Kind: est.KindMean, Eps: 1, D: 2}); err != nil {
		t.Fatal(err)
	}
	addr := listenRegistry(t, reg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, name := range []string{"oneshot", "missing"} {
		q := cl.Query(name)
		if _, err := q.Rotate(); err == nil {
			t.Fatalf("%s: rotate accepted", name)
		}
		if _, err := q.WindowEstimate(2); err == nil {
			t.Fatalf("%s: window estimate served", name)
		}
		if _, err := q.DecayedEstimate(0.9); err == nil {
			t.Fatalf("%s: decayed estimate served", name)
		}
		if err := q.SendEpoch(0, rep2(0.1, 0.1)); err == nil {
			t.Fatalf("%s: epoch-tagged report accepted", name)
		}
		if acc, err := q.SendBatchEpoch(0, []est.Report{rep2(0.1, 0.1)}); err == nil && acc != 0 {
			t.Fatalf("%s: epoch-tagged batch accepted %d", name, acc)
		}
	}
	// The connection is still usable after every rejection.
	if err := cl.Query("oneshot").Send(rep2(0.5, 0.5)); err != nil {
		t.Fatalf("connection desynced by rejections: %v", err)
	}
}

// TestStaleGenerationRoutesNACK covers the delete/reopen collision: a
// generation-pinned handle must get rejections once its query's name has
// been recycled, while an unpinned handle follows the name to the
// successor query.
func TestStaleGenerationRoutesNACK(t *testing.T) {
	reg := est.NewRegistry(meanFactory(t), nil)
	if _, err := reg.Open(est.QuerySpec{Name: "g", Kind: est.KindMean, Eps: 1, D: 2}); err != nil {
		t.Fatal(err)
	}
	addr := listenRegistry(t, reg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	info, err := cl.QueryInfo("g")
	if err != nil {
		t.Fatal(err)
	}
	pinned := cl.QueryAt("g", info.Gen)
	if err := pinned.Send(rep2(0.5, 0.5)); err != nil {
		t.Fatalf("pinned handle on the live generation: %v", err)
	}
	if _, err := pinned.Estimate(); err != nil {
		t.Fatalf("pinned estimate on the live generation: %v", err)
	}

	// Recycle the name: delete, reopen.
	if err := reg.Delete("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open(est.QuerySpec{Name: "g", Kind: est.KindMean, Eps: 1, D: 2}); err != nil {
		t.Fatal(err)
	}
	reinfo, err := cl.QueryInfo("g")
	if err != nil {
		t.Fatal(err)
	}
	if reinfo.Gen == info.Gen {
		t.Fatalf("reopened query kept generation %d", info.Gen)
	}

	// The stale pinned handle gets rejections on every exchange shape...
	if err := pinned.Send(rep2(0.5, 0.5)); err == nil {
		t.Fatal("stale handle's report landed in the successor query")
	}
	if acc, err := pinned.SendBatch([]est.Report{rep2(0.5, 0.5)}); err == nil && acc != 0 {
		t.Fatalf("stale handle's batch accepted %d", acc)
	}
	if _, err := pinned.Estimate(); err == nil {
		t.Fatal("stale handle read the successor query's estimate")
	}
	// ...while the successor stays untouched and reachable by name.
	successor := reg.Get("g")
	for _, c := range successor.Estimator().Counts() {
		if c != 0 {
			t.Fatalf("successor query absorbed stale traffic: counts %v", successor.Estimator().Counts())
		}
	}
	if err := cl.Query("g").Send(rep2(0.25, 0.25)); err != nil {
		t.Fatalf("unpinned handle after reopen: %v", err)
	}
	fresh := cl.QueryAt("g", reinfo.Gen)
	if err := fresh.Send(rep2(0.25, 0.25)); err != nil {
		t.Fatalf("handle pinned to the new generation: %v", err)
	}
}

// TestRefusedPinnedBatchKeepsConnectionInSync: a generation-pinned batch
// (SELECTGEN route) or an epoch-tagged batch (EPOCH header) of more than
// maxBatch reports is refused client-side after its header went into
// the write buffer; the header must not leak into the next exchange, so
// every later exchange on the connection still answers correctly.
func TestRefusedPinnedBatchKeepsConnectionInSync(t *testing.T) {
	reg := est.NewRegistry(epochFactory(t, epoch.Config{}), nil)
	if _, err := reg.Open(est.QuerySpec{Name: "default", Kind: est.KindMean, Eps: 1, D: 2}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Get("default").AddReport(rep2(0.5, -0.5)); err != nil {
		t.Fatal(err)
	}
	addr := listenRegistry(t, reg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	info, err := cl.QueryInfo("default")
	if err != nil {
		t.Fatal(err)
	}
	pinned := cl.QueryAt("default", info.Gen)
	tooMany := make([]est.Report, maxBatch+1)
	for i := range tooMany {
		tooMany[i] = rep2(0.25, 0.25)
	}
	refusals := map[string]func() (int, error){
		"SendBatch":      func() (int, error) { return pinned.SendBatch(tooMany) },
		"SendBatchEpoch": func() (int, error) { return cl.Query("default").SendBatchEpoch(info.Epoch, tooMany) },
	}
	for name, send := range refusals {
		if _, err := send(); err == nil {
			t.Fatalf("%s of %d reports was not refused", name, len(tooMany))
		}
		for i := 0; i < 2; i++ {
			counts, err := pinned.Counts()
			if err != nil {
				t.Fatalf("after a refused %s, Counts #%d: %v", name, i+1, err)
			}
			if len(counts) != 2 || counts[0] != 1 || counts[1] != 1 {
				t.Fatalf("after a refused %s, Counts #%d = %v, want [1 1]", name, i+1, counts)
			}
		}
	}
}
