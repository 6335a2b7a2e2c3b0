package epoch

import (
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
)

// columns flattens rectangular reports into the CBATCH row-major layout.
func columns(reps []est.Report) (ndims, nvals int, dims []uint32, vals []float64) {
	ndims, nvals = len(reps[0].Dims), len(reps[0].Values)
	for _, rep := range reps {
		dims = append(dims, rep.Dims...)
		vals = append(vals, rep.Values...)
	}
	return ndims, nvals, dims, vals
}

// sameSnapshot reports whether two snapshots are bitwise equal.
func sameSnapshot(a, b est.Snapshot) bool {
	if len(a.Sums) != len(b.Sums) || len(a.Counts) != len(b.Counts) {
		return false
	}
	for j := range a.Sums {
		if math.Float64bits(a.Sums[j]) != math.Float64bits(b.Sums[j]) {
			return false
		}
	}
	for j := range a.Counts {
		if a.Counts[j] != b.Counts[j] {
			return false
		}
	}
	return true
}

// TestRingLaneAddColumnsMatchesAddReports: frames fed to a ring lane as
// columns must leave the ring exactly as the same frames fed as reports
// do — bitwise-equal live and frozen snapshots, and the same number of
// report-count rotations (frames straddle the trigger).
func TestRingLaneAddColumnsMatchesAddReports(t *testing.T) {
	const frame = 64
	reps := genReports(t, 10*frame, 61)
	byRows := meanRing(t, Config{Every: 150, Retain: 16})
	byCols := meanRing(t, Config{Every: 150, Retain: 16})
	rowLane, colLane := byRows.AcquireLane(), byCols.AcquireLane()
	if _, ok := colLane.(est.ColumnAdder); !ok {
		t.Fatal("ring lane does not implement est.ColumnAdder")
	}
	for off := 0; off < len(reps); off += frame {
		batch := reps[off : off+frame]
		if acc, err := rowLane.AddReports(batch); acc != frame {
			t.Fatalf("AddReports accepted %d of %d: %v", acc, frame, err)
		}
		ndims, nvals, dims, vals := columns(batch)
		if acc, err := est.AddColumns(colLane, frame, ndims, nvals, dims, vals); acc != frame {
			t.Fatalf("AddColumns accepted %d of %d: %v", acc, frame, err)
		}
	}
	if a, b := byRows.Current(), byCols.Current(); a != b || a == 0 {
		t.Fatalf("rotations: AddReports reached epoch %d, AddColumns %d", a, b)
	}
	_, rowEntries := byRows.State()
	_, colEntries := byCols.State()
	if len(rowEntries) != len(colEntries) {
		t.Fatalf("frozen epochs: %d by rows, %d by columns", len(rowEntries), len(colEntries))
	}
	for i := range rowEntries {
		if rowEntries[i].ID != colEntries[i].ID || !sameSnapshot(rowEntries[i].Snap, colEntries[i].Snap) {
			t.Fatalf("frozen epoch %d differs between AddReports and AddColumns", rowEntries[i].ID)
		}
	}
	if !sameSnapshot(byRows.Snapshot(), byCols.Snapshot()) {
		t.Fatal("live epoch differs between AddReports and AddColumns")
	}

	// A rejected row must not tick the trigger on the columnar path either.
	before := byCols.Current()
	badDims := []uint32{0, 99} // the ring's estimator has d = 8
	if acc, _ := est.AddColumns(colLane, 1, 2, 2, badDims, []float64{0.1, 0.2}); acc != 0 {
		t.Fatalf("malformed columnar row accepted (%d)", acc)
	}
	if byCols.Current() != before {
		t.Fatal("rejected columnar row advanced the rotation trigger")
	}
}

// TestRingLaneAddColumnsAllocs pins the continual query's columnar ingest
// at zero allocations per frame: the lane forwards to the wrapped
// estimator's columnar path instead of materializing a []est.Report.
func TestRingLaneAddColumnsAllocs(t *testing.T) {
	const frame = 256
	ring := meanRing(t, Config{})
	lane := ring.AcquireLane()
	ndims, nvals, dims, vals := columns(genReports(t, frame, 71))
	allocs := testing.AllocsPerRun(100, func() {
		if acc, err := est.AddColumns(lane, frame, ndims, nvals, dims, vals); acc != frame {
			t.Fatalf("accepted %d of %d: %v", acc, frame, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ring lane AddColumns: %v allocs per %d-report frame, want 0", allocs, frame)
	}
}
