package hdr4me

import (
	"math"
	"runtime"
	"testing"

	"github.com/hdr4me/hdr4me/internal/epoch"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// servedRing opens a continual mean query of the paper's shape (d =
// 1024, m = 32) on a fresh epoch registry, fills its live epoch and
// frozen epochs with reports, and returns the registry and the query's
// ring.
func servedRing(t *testing.T, frozen int) (*Registry, *epoch.Ring) {
	t.Helper()
	const d, m = 1024, 32
	reg, err := NewEpochQueryRegistry(nil, EpochConfig{Retain: frozen})
	if err != nil {
		t.Fatal(err)
	}
	q, err := reg.Open(QuerySpec{Name: DefaultQueryName, Kind: est.KindMean, Mech: "piecewise", Eps: 0.8, D: d, M: m})
	if err != nil {
		t.Fatal(err)
	}
	ring := q.Estimator().(*epoch.Ring)
	rng := mathx.NewRNG(7)
	for e := 0; e <= frozen; e++ {
		for u := 0; u < 64; u++ {
			if err := ring.Observe(goldenTuple(e*64+u, d), rng); err != nil {
				t.Fatal(err)
			}
		}
		if e < frozen {
			ring.Rotate()
		}
	}
	return reg, ring
}

// TestServedRepliesAllocs pins what one served exchange allocates over a
// loopback collector, client and server together (the count is
// process-wide): exactly what the client returns — one vector for
// Estimate, Counts, Enhanced, WindowEstimate and DecayedEstimate, and
// the kind string plus the sum and count vectors for PullSnapshot. The
// collector fills every reply from pooled vectors and folds, so it
// allocates nothing of its own.
func TestServedRepliesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	reg, _ := servedRing(t, 4)
	srv := NewRegistryServer(reg)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialCollector(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	q := cl.Query(DefaultQueryName)
	for _, tc := range []struct {
		name string
		want float64
		call func() error
	}{
		{"Estimate", 1, func() error { _, err := cl.Estimate(); return err }},
		{"Counts", 1, func() error { _, err := cl.Counts(); return err }},
		{"Enhanced", 1, func() error { _, err := cl.Enhanced(); return err }},
		{"routed Estimate", 1, func() error { _, err := q.Estimate(); return err }},
		{"WindowEstimate", 1, func() error { _, err := q.WindowEstimate(3); return err }},
		{"DecayedEstimate", 1, func() error { _, err := q.DecayedEstimate(0.5); return err }},
		{"PullSnapshot", 3, func() error { _, err := cl.PullSnapshot(); return err }},
	} {
		// Warm the pools and the connection buffers before counting.
		for i := 0; i < 3; i++ {
			if err := tc.call(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		got := testing.AllocsPerRun(50, func() {
			if err := tc.call(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		t.Logf("%s: %v allocs per round trip", tc.name, got)
		if got != tc.want {
			t.Errorf("%s: %v allocs per round trip, want %v (what the client returns)", tc.name, got, tc.want)
		}
	}
}

// TestSaveCollectorStateAllocs pins a checkpoint's allocations: frozen
// epochs are shared with the ring, not copied, the live epoch folds into
// pooled scratch and the payload streams into the file, so checkpointing
// a d = 1024 continual query allocates the same bounded amount with 4
// frozen epochs as with 40 (about 1 MB at 40 when each save cloned the
// epochs and buffered the payload).
func TestSaveCollectorStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const saves, bound, slack = 20, 8 << 10, 1 << 10
	var perSave [2]uint64
	for i, frozen := range []int{4, 40} {
		reg, _ := servedRing(t, frozen)
		dir := t.TempDir()
		save := func() {
			if err := SaveCollectorState(dir, reg, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Settle the set-up's garbage, then warm the pools. A collection
		// during the count would empty them, so the smallest of three
		// counts is kept.
		runtime.GC()
		save()
		perSave[i] = math.MaxUint64
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range saves {
				save()
			}
			runtime.ReadMemStats(&after)
			perSave[i] = min(perSave[i], (after.TotalAlloc-before.TotalAlloc)/saves)
		}
		t.Logf("%d frozen epochs: %d B per save", frozen, perSave[i])
		if perSave[i] > bound {
			t.Errorf("%d frozen epochs: %d B per save, want ≤ %d", frozen, perSave[i], bound)
		}
	}
	if perSave[1] > perSave[0]+slack {
		t.Errorf("a save with 40 frozen epochs allocates %d B, with 4 %d B: want the same amount", perSave[1], perSave[0])
	}
}

// TestSaveCheckpointAllocs pins what Session.SaveCheckpoint allocates at
// the paper's shape (d = 1024, m = 32): the fold it encodes is pooled
// scratch, returned after the file is written, so a save allocates less
// than one d-vector of its own.
func TestSaveCheckpointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const d, m, saves = 1024, 32, 20
	s, err := New(WithMechanism(Piecewise()), WithBudget(0.8), WithDims(d, m), WithSeed(3), WithStateDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 256; u++ {
		if err := s.Observe(goldenTuple(u, d)); err != nil {
			t.Fatal(err)
		}
	}
	save := func() {
		if err := s.SaveCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// As TestSaveCollectorStateAllocs: settle, warm the pool, keep the
	// smallest of three counts.
	runtime.GC()
	save()
	perSave := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range saves {
			save()
		}
		runtime.ReadMemStats(&after)
		perSave = min(perSave, (after.TotalAlloc-before.TotalAlloc)/saves)
	}
	t.Logf("%d B per save", perSave)
	if bound := uint64(8 * d); perSave >= bound {
		t.Errorf("SaveCheckpoint at d=%d: %d B per save, want < %d", d, perSave, bound)
	}
}
