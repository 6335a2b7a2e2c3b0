package est_test

import (
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/freq"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/recal"
)

// ingestFamily is one estimator family under the cross-family ingest
// tests: a constructor for empty estimators and a batch that mixes valid
// rows with every malformed shape the family rejects.
type ingestFamily struct {
	name  string
	fresh func(t *testing.T) est.Core
	batch func(t *testing.T) []est.Report
}

func ingestFamilies() []ingestFamily {
	meanP, err := highdim.NewProtocol(ldp.Piecewise{}, 1, 6, 2)
	if err != nil {
		panic(err)
	}
	alloc, err := highdim.WeightedAllocation(1, []float64{1, 2, 3, 1, 2, 3}, 2)
	if err != nil {
		panic(err)
	}
	md, err := highdim.NewDuchiMD(4, 1)
	if err != nil {
		panic(err)
	}
	freqP := freq.Protocol{Mech: ldp.Piecewise{}, Eps: 1, Cards: []int{3, 3, 4, 2}, M: 2}
	nan, inf := math.NaN(), math.Inf(1)

	// The mean grammar: at most m strictly increasing in-range dims,
	// one finite value per dim. An empty report is valid.
	meanBad := []est.Report{
		{Dims: []uint32{1, 3}, Values: []float64{0.5}},
		{Dims: []uint32{0, 1, 2}, Values: []float64{0.5, 0.5, 0.5}},
		{Dims: []uint32{1, 6}, Values: []float64{0.5, 0.5}},
		{Dims: []uint32{3, 3}, Values: []float64{0.5, 0.5}},
		{Dims: []uint32{4, 2}, Values: []float64{0.5, 0.5}},
		{Dims: []uint32{0, 5}, Values: []float64{nan, 0.5}},
		{Dims: []uint32{0, 5}, Values: []float64{0.5, -inf}},
	}
	meanShort := []est.Report{{Dims: []uint32{4}, Values: []float64{0.75}}, {}}
	meanBatch := func(e est.Core) func(t *testing.T) []est.Report {
		return func(t *testing.T) []est.Report {
			return interleave(validRows(t, e.(est.Reporter), 24, 6, nil), append(meanBad, meanShort...))
		}
	}
	meanUniform := func(t *testing.T) est.Core { return highdim.NewAggregator(meanP) }
	meanAllocated := func(t *testing.T) est.Core {
		a, err := highdim.NewAllocatedAggregator(meanP, alloc)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	wholeTuple := func(t *testing.T) est.Core {
		a, err := highdim.NewMDAggregator(md)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	frequency := func(t *testing.T) est.Core {
		f, err := freq.NewFlat(freqP, recal.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	return []ingestFamily{
		{name: "mean", fresh: meanUniform, batch: meanBatch(highdim.NewAggregator(meanP))},
		{name: "mean-allocated", fresh: meanAllocated, batch: func(t *testing.T) []est.Report {
			return meanBatch(meanAllocated(t))(t)
		}},
		{name: "wholetuple", fresh: wholeTuple, batch: func(t *testing.T) []est.Report {
			// The whole-tuple grammar: no dims, exactly D finite values.
			bad := []est.Report{
				{Dims: []uint32{0}, Values: []float64{0.5, 0.5, 0.5, 0.5}},
				{Values: []float64{0.5, 0.5, 0.5}},
				{Values: []float64{0.5, 0.5, 0.5, 0.5, 0.5}},
				{},
				{Values: []float64{0.5, nan, 0.5, 0.5}},
				{Values: []float64{0.5, 0.5, 0.5, inf}},
			}
			return interleave(validRows(t, wholeTuple(t).(est.Reporter), 24, 4, nil), bad)
		}},
		{name: "freq", fresh: frequency, batch: func(t *testing.T) []est.Report {
			// The frequency grammar: at most m strictly increasing
			// in-range dims, exactly Σ card(j) finite values over them.
			bad := []est.Report{
				{Dims: []uint32{0, 1, 3}, Values: make([]float64, 8)},
				{Dims: []uint32{1, 4}, Values: make([]float64, 5)},
				{Dims: []uint32{2, 2}, Values: make([]float64, 8)},
				{Dims: []uint32{3, 0}, Values: make([]float64, 5)},
				{Dims: []uint32{0, 2}, Values: make([]float64, 6)},
				{Dims: []uint32{0}, Values: []float64{0.5, nan, 0.5}},
				{Dims: []uint32{3}, Values: []float64{inf, 0.5}},
			}
			short := []est.Report{{Dims: []uint32{2}, Values: []float64{0.5, -0.5, 1.25, -1}}, {}}
			return interleave(validRows(t, frequency(t).(est.Reporter), 24, 4, freqP.Cards), append(bad, short...))
		}},
	}
}

// validRows perturbs n seeded tuples through r. Values are snapped to a
// 2⁻¹⁰ grid so every path's per-cell sum is exact whatever stripe the
// rows land on: the estimator-level AddColumns and AddReports calls each
// acquire their own stripe, and cross-stripe association is pinned by
// the Stripes tests, not here.
func validRows(t *testing.T, r est.Reporter, n, d int, cards []int) []est.Report {
	t.Helper()
	rng := mathx.NewRNG(31)
	reps := make([]est.Report, n)
	for i := range reps {
		var tup est.Tuple
		if cards != nil {
			tup.Cats = make([]int, len(cards))
			for j, c := range cards {
				tup.Cats[j] = rng.IntN(c)
			}
		} else {
			tup.Values = make([]float64, d)
			for j := range tup.Values {
				tup.Values[j] = 2*rng.Float64() - 1
			}
		}
		rep, err := r.MakeReport(tup, rng)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range rep.Values {
			rep.Values[k] = math.Round(v*1024) / 1024
		}
		reps[i] = rep
	}
	return reps
}

// interleave spreads extra rows through valid ones, one after every
// third valid row, so each rejection sits between accepted rows.
func interleave(valid, extra []est.Report) []est.Report {
	var out []est.Report
	for i, rep := range valid {
		out = append(out, rep)
		if i%3 == 2 && len(extra) > 0 {
			out = append(out, extra[0])
			extra = extra[1:]
		}
	}
	return append(out, extra...)
}

// rectangularRuns splits reps into maximal consecutive runs of one
// (ndims, nvals) shape, in order — the batches a columnar sender can
// frame without reordering rows.
func rectangularRuns(reps []est.Report) [][]est.Report {
	var runs [][]est.Report
	for lo := 0; lo < len(reps); {
		hi := lo + 1
		for hi < len(reps) && len(reps[hi].Dims) == len(reps[lo].Dims) && len(reps[hi].Values) == len(reps[lo].Values) {
			hi++
		}
		runs = append(runs, reps[lo:hi])
		lo = hi
	}
	return runs
}

// addColumnRuns sends each rectangular run of reps through add as one
// columnar batch, folding the results under the batch contract: accepted
// sums, the first rejection wins.
func addColumnRuns(reps []est.Report, add func(n, ndims, nvals int, dims []uint32, vals []float64) (int, error)) (accepted int, err error) {
	for _, run := range rectangularRuns(reps) {
		var dims []uint32
		var vals []float64
		for _, rep := range run {
			dims = append(dims, rep.Dims...)
			vals = append(vals, rep.Values...)
		}
		n, rerr := add(len(run), len(run[0].Dims), len(run[0].Values), dims, vals)
		accepted += n
		if err == nil {
			err = rerr
		}
	}
	return accepted, err
}

// sameSnapshot reports whether two snapshots are bitwise equal.
func sameSnapshot(a, b est.Snapshot) bool {
	if a.Kind != b.Kind || a.Dims != b.Dims || len(a.Cards) != len(b.Cards) ||
		len(a.Sums) != len(b.Sums) || len(a.Counts) != len(b.Counts) {
		return false
	}
	for j := range a.Cards {
		if a.Cards[j] != b.Cards[j] {
			return false
		}
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

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestIngestPathParity: for every family, one batch mixing valid rows
// with each malformed shape the family rejects must give the same
// accepted count, the same first-error text and a bitwise-identical
// Snapshot through every ingest path — per-row AddReport, AddReports,
// AddColumns over the batch's rectangular runs, and an acquired lane's
// AddReports and AddColumns.
func TestIngestPathParity(t *testing.T) {
	paths := []struct {
		name string
		add  func(t *testing.T, e est.Core, reps []est.Report) (int, error)
	}{
		{"AddReport", func(_ *testing.T, e est.Core, reps []est.Report) (accepted int, err error) {
			for _, rep := range reps {
				if aerr := e.AddReport(rep); aerr != nil {
					if err == nil {
						err = aerr
					}
					continue
				}
				accepted++
			}
			return accepted, err
		}},
		{"AddReports", func(_ *testing.T, e est.Core, reps []est.Report) (int, error) {
			return e.(est.BatchAdder).AddReports(reps)
		}},
		{"AddColumns", func(_ *testing.T, e est.Core, reps []est.Report) (int, error) {
			return addColumnRuns(reps, e.(est.ColumnAdder).AddColumns)
		}},
		{"lane.AddReports", func(_ *testing.T, e est.Core, reps []est.Report) (int, error) {
			return e.AcquireLane().AddReports(reps)
		}},
		{"lane.AddColumns", func(t *testing.T, e est.Core, reps []est.Report) (int, error) {
			l := e.AcquireLane()
			if _, ok := l.(est.ColumnAdder); !ok {
				t.Fatalf("%s lane does not implement est.ColumnAdder", e.Kind())
			}
			return addColumnRuns(reps, func(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
				return est.AddColumns(l, n, ndims, nvals, dims, vals)
			})
		}},
	}
	for _, fam := range ingestFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			batch := fam.batch(t)
			var (
				wantAcc  int
				wantErr  string
				wantSnap est.Snapshot
			)
			for i, p := range paths {
				e := fam.fresh(t)
				acc, err := p.add(t, e, batch)
				snap := e.Snapshot()
				if i == 0 {
					wantAcc, wantErr, wantSnap = acc, errText(err), snap
					if acc == 0 || acc == len(batch) || err == nil {
						t.Fatalf("%s: accepted %d of %d (err %v); the batch must mix accepted and rejected rows",
							p.name, acc, len(batch), err)
					}
					continue
				}
				if acc != wantAcc {
					t.Errorf("%s accepted %d, %s accepted %d", p.name, acc, paths[0].name, wantAcc)
				}
				if errText(err) != wantErr {
					t.Errorf("%s first error %q, %s %q", p.name, errText(err), paths[0].name, wantErr)
				}
				if !sameSnapshot(snap, wantSnap) {
					t.Errorf("%s snapshot differs from %s:\n got %+v\nwant %+v", p.name, paths[0].name, snap, wantSnap)
				}
			}
		})
	}
}

// TestAddColumnsOverflowingShape: a shape whose n·ndims or n·nvals
// overflows int must be rejected as a whole — an error, 0 accepted and
// an unchanged Snapshot — on every family's estimator and lane, not
// wrap into a product that passes the bounds check and panics.
func TestAddColumnsOverflowingShape(t *testing.T) {
	shapes := [][3]int{{1 << 62, 4, 4}, {1 << 62, 4, 0}, {1 << 62, 0, 4}, {math.MaxInt, 2, 2}}
	for _, fam := range ingestFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			e := fam.fresh(t)
			if _, err := est.AddReports(e, fam.batch(t)); err == nil {
				t.Fatal("the family batch carries malformed rows; want a rejection")
			}
			before := e.Snapshot()
			adders := map[string]est.ColumnAdder{
				"estimator": e.(est.ColumnAdder),
				"lane":      e.AcquireLane().(est.ColumnAdder),
			}
			for name, ca := range adders {
				for _, sh := range shapes {
					acc, err := ca.AddColumns(sh[0], sh[1], sh[2], nil, nil)
					if err == nil || acc != 0 {
						t.Errorf("%s AddColumns(%d, %d, %d, nil, nil) = %d, %v; want 0 and an error",
							name, sh[0], sh[1], sh[2], acc, err)
					}
				}
			}
			if !sameSnapshot(e.Snapshot(), before) {
				t.Error("a rejected columnar shape changed the snapshot")
			}
		})
	}
}

// TestLaneIngestAllocs pins the steady-state ingest cost of every
// family's lane: once the stripe's lanes exist, AddReports and
// AddColumns over valid rows allocate nothing.
func TestLaneIngestAllocs(t *testing.T) {
	for _, fam := range ingestFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			e := fam.fresh(t)
			var valid []est.Report
			for _, rep := range fam.batch(t) {
				if e.AddReport(rep) == nil {
					valid = append(valid, rep)
				}
			}
			// The longest rectangular run of valid rows is the columnar batch.
			var run []est.Report
			for _, r := range rectangularRuns(valid) {
				if len(r) > len(run) {
					run = r
				}
			}
			var dims []uint32
			var vals []float64
			for _, rep := range run {
				dims = append(dims, rep.Dims...)
				vals = append(vals, rep.Values...)
			}
			ndims, nvals := len(run[0].Dims), len(run[0].Values)

			lane := e.AcquireLane()
			if allocs := testing.AllocsPerRun(100, func() {
				if acc, err := lane.AddReports(valid); acc != len(valid) {
					t.Fatalf("AddReports accepted %d of %d: %v", acc, len(valid), err)
				}
			}); allocs != 0 {
				t.Errorf("lane AddReports: %v allocs per %d-report batch, want 0", allocs, len(valid))
			}
			if allocs := testing.AllocsPerRun(100, func() {
				if acc, err := est.AddColumns(lane, len(run), ndims, nvals, dims, vals); acc != len(run) {
					t.Fatalf("AddColumns accepted %d of %d: %v", acc, len(run), err)
				}
			}); allocs != 0 {
				t.Errorf("lane AddColumns: %v allocs per %d-row batch, want 0", allocs, len(run))
			}
		})
	}
}
