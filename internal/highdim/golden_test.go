package highdim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/dataset"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Golden streams for the protocol's user-side paths: FNV-64a digests of
// the exact reports Client.Report and Aggregator.MakeReport emit, and of
// the estimate bits an est.Round collection round produces (uniform and
// allocated budgets), for fixed seeds. A changed digest means a change
// altered the random stream; never update one to make a change pass.

func digestReports(reps []Report) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range reps {
		binary.LittleEndian.PutUint32(b[:4], uint32(len(r.Dims)))
		h.Write(b[:4])
		for _, j := range r.Dims {
			binary.LittleEndian.PutUint32(b[:4], j)
			h.Write(b[:4])
		}
		for _, v := range r.Values {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func digestFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

func goldenRow(u, d int) []float64 {
	row := make([]float64, d)
	for j := range row {
		row[j] = math.Sin(float64(u*131 + j*17 + 1))
	}
	return row
}

var goldenHighdim = map[string]uint64{
	"client/Piecewise/d=1024/m=32":     0x161471a952949ebe,
	"client/Piecewise/d=32/m=1":        0x2ae5ba079e271016,
	"client/Piecewise/d=8/m=8":         0x6f1db49735aae10f,
	"client/Laplace/d=1024/m=32":       0x542f36d4cfc3c8d3,
	"client/Laplace/d=32/m=1":          0xc192030e22cf62a1,
	"client/Laplace/d=8/m=8":           0xb7d60230f0832823,
	"client/SquareWave/d=1024/m=32":    0x699003c1f20e2186,
	"client/SquareWave/d=32/m=1":       0xf233597ae763558f,
	"client/SquareWave/d=8/m=8":        0xff91726574edf898,
	"makereport/Piecewise/d=1024/m=32": 0xa1abd0ff6bc8c1db,
	"simulate/Piecewise":               0xc93bdc31774d7aa2,
	"simulate/Laplace":                 0x6cf7397933656034,
	"simulate-allocated/Piecewise":     0xe134300ecb38dc15,
	"makereport-allocated/Piecewise":   0xf580504879473e7a,
}

func checkGolden(t *testing.T, key string, got uint64) {
	t.Helper()
	if want := goldenHighdim[key]; got != want {
		t.Errorf("%s: digest %#x, want %#x", key, got, want)
	}
}

func TestGoldenClientReport(t *testing.T) {
	for _, mech := range []ldp.Mechanism{ldp.Piecewise{}, ldp.Laplace{}, ldp.SquareWave{}} {
		for _, sh := range []struct{ d, m int }{{1024, 32}, {32, 1}, {8, 8}} {
			p := mustProtocol(t, mech, 1.0, sh.d, sh.m)
			c := NewClient(p, mathx.NewRNG(23))
			reps := make([]Report, 200)
			for u := range reps {
				reps[u] = c.Report(goldenRow(u, sh.d))
			}
			checkGolden(t, fmt.Sprintf("client/%s/d=%d/m=%d", mech.Name(), sh.d, sh.m), digestReports(reps))
		}
	}
}

func TestGoldenMakeReport(t *testing.T) {
	p := mustProtocol(t, ldp.Piecewise{}, 0.8, 1024, 32)
	agg := NewAggregator(p)
	root := mathx.NewRNG(29)
	reps := make([]Report, 200)
	for u := range reps {
		var err error
		if reps[u], err = agg.MakeReport(est.Tuple{Values: goldenRow(u, p.D)}, root.Child(uint64(u))); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "makereport/Piecewise/d=1024/m=32", digestReports(reps))
}

func TestGoldenSimulate(t *testing.T) {
	ds := dataset.NewGaussian(3000, 64, 31)
	for _, mech := range []ldp.Mechanism{ldp.Piecewise{}, ldp.Laplace{}} {
		p := mustProtocol(t, mech, 1.0, 64, 8)
		agg, err := simulate(p, ds, mathx.NewRNG(37), 3)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "simulate/"+mech.Name(), digestFloats(agg.Estimate()))
	}
	p := mustProtocol(t, ldp.Piecewise{}, 1.0, 64, 8)
	weights := make([]float64, 64)
	for j := range weights {
		weights[j] = float64(1 + j%4)
	}
	alloc, err := WeightedAllocation(1.0, weights, 8)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := simulateAllocated(p, alloc, ds, mathx.NewRNG(41), 3)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "simulate-allocated/Piecewise", digestFloats(agg.Estimate()))

	// The allocated aggregator's detached reports spend EpsFor(j).
	aagg, err := NewAllocatedAggregator(p, alloc)
	if err != nil {
		t.Fatal(err)
	}
	root := mathx.NewRNG(59)
	reps := make([]Report, 200)
	for u := range reps {
		if reps[u], err = aagg.MakeReport(est.Tuple{Values: goldenRow(u, p.D)}, root.Child(uint64(u))); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "makereport-allocated/Piecewise", digestReports(reps))
}
