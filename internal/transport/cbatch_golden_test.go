package transport

import (
	"bytes"
	"hash/fnv"
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Golden CBATCH frames: FNV-64a digests of whole frames for fixed
// inputs, from the one CBATCH encoder through both of its entry points:
// appendCBatchColumns called on flat columns, and CodecV2{}.AppendBatch,
// which stages row-shaped reports into a stagedBatch first (the path
// BufferedClient and Client take). The frame bytes are wire format: a
// changed digest means the encoder changed what it puts on the wire.
// Never update one to make a change pass.

var goldenCBatch = map[string]uint64{
	"reports/d=1024/m=32": 0xa60861ac9b3a36ae, // 78019 bytes
	"reports/d=32/m=1":    0xb450830182ac1ae3, // 2342 bytes
	"reports/d=8/m=8":     0xbe1bf076fa021836, // 16480 bytes
	"steady":              0xbb79beee1070a7c6, // 9664 bytes
	"long-groups":         0xf9bc01fc71697a88, // 90788 bytes
	"adversarial":         0x5980d29139193137, // 944 bytes
}

// goldenCBatchReports is a seeded stream of n mean-family reports at
// (d, m): what Session.Report returns for a Piecewise session at ε = 0.8,
// one reseeded RNG per user.
func goldenCBatchReports(t testing.TB, d, m, n int) []est.Report {
	t.Helper()
	p, err := highdim.NewProtocol(ldp.Piecewise{}, 0.8, d, m)
	if err != nil {
		t.Fatal(err)
	}
	agg := highdim.NewAggregator(p)
	row := make([]float64, d)
	reps := make([]est.Report, n)
	for u := range reps {
		for j := range row {
			row[j] = math.Sin(float64(u*131 + j*17 + 1))
		}
		if reps[u], err = agg.MakeReport(est.Tuple{Values: row}, mathx.NewRNG(uint64(u))); err != nil {
			t.Fatal(err)
		}
	}
	return reps
}

// steadyCBatchReports repeats one report shape n times, so every dims
// column encodes as a single run group.
func steadyCBatchReports(n int) []est.Report {
	reps := make([]est.Report, n)
	for i := range reps {
		reps[i] = est.Report{
			Dims:   []uint32{3, 9, 100, 511},
			Values: []float64{float64(i), -0.5, 1e-300, math.Pi},
		}
	}
	return reps
}

// longGroupCBatchReports holds two 9000-entry columns, each one group
// with a three-byte header: a constant column (one run) and a column
// whose deltas 1, 2, 3, … never repeat (one literal, its deltas spanning
// one- to three-byte varints).
func longGroupCBatchReports() []est.Report {
	reps := make([]est.Report, 9000)
	for i := range reps {
		reps[i] = est.Report{Dims: []uint32{77, uint32(i * (i + 1) / 2)}, Values: []float64{-float64(i)}}
	}
	return reps
}

// adversarialCBatchReports builds columns of wide deltas: ≥ 2¹⁴ (three
// varint bytes) and ≥ 2²⁸ (five), alternating in sign, in runs of exactly
// two (the shortest run the encoder groups) broken up by literals, plus
// the uint32 extremes.
func adversarialCBatchReports() []est.Report {
	deltas := []int64{
		1<<28 + 3, 1<<28 + 3, -(1<<14 + 9), -(1<<14 + 9), 1<<14 + 1, -(1<<28 + 7), -(1<<28 + 7),
		1 << 14, 1 << 14, -(1 << 28), 5, -(1<<21 + 1), -(1<<21 + 1), 1<<28 + 11, 0, 0, -1,
	}
	const n = 3 * 17
	reps := make([]est.Report, n+2)
	for i := 0; i < n; i++ {
		reps[i] = est.Report{Dims: make([]uint32, 3), Values: []float64{float64(i) / n}}
	}
	for c, base := range []int64{1 << 31, 3 << 30, 1 << 29} {
		v := base
		for i := 0; i < n; i++ {
			v += deltas[(i+c)%len(deltas)] * int64(1+c)
			reps[i].Dims[c] = uint32(v)
		}
	}
	reps[n] = est.Report{Dims: []uint32{math.MaxUint32, 0, math.MaxUint32}, Values: []float64{math.Inf(1)}}
	reps[n+1] = est.Report{Dims: []uint32{0, math.MaxUint32, 0}, Values: []float64{math.NaN()}}
	return reps
}

func TestCBatchFrameGolden(t *testing.T) {
	cases := []struct {
		key  string
		reps []est.Report
	}{
		{"reports/d=1024/m=32", goldenCBatchReports(t, 1024, 32, 256)},
		{"reports/d=32/m=1", goldenCBatchReports(t, 32, 1, 256)},
		{"reports/d=8/m=8", goldenCBatchReports(t, 8, 8, 256)},
		{"steady", steadyCBatchReports(300)},
		{"long-groups", longGroupCBatchReports()},
		{"adversarial", adversarialCBatchReports()},
	}
	for _, tc := range cases {
		ndims, nvals := len(tc.reps[0].Dims), len(tc.reps[0].Values)
		var dims []uint32
		var vals []float64
		for _, rep := range tc.reps {
			dims = append(dims, rep.Dims...)
			vals = append(vals, rep.Values...)
		}
		cols, err := appendCBatchColumns(nil, "q", 42, len(tc.reps), ndims, nvals, dims, vals)
		if err != nil {
			t.Fatalf("%s: appendCBatchColumns: %v", tc.key, err)
		}
		rows, err := CodecV2{}.AppendBatch(nil, "q", 42, tc.reps)
		if err != nil {
			t.Fatalf("%s: AppendBatch: %v", tc.key, err)
		}
		if rows[0] != frameCBatch {
			t.Fatalf("%s: AppendBatch wrote frame 0x%02x, want CBATCH", tc.key, rows[0])
		}
		if !bytes.Equal(cols, rows) {
			t.Errorf("%s: the columnar and row encoders disagree (%d vs %d bytes)", tc.key, len(cols), len(rows))
		}
		h := fnv.New64a()
		h.Write(cols)
		got := h.Sum64()
		if want := goldenCBatch[tc.key]; got != want {
			t.Errorf("%s: frame digest %#x (%d bytes), want %#x", tc.key, got, len(cols), want)
		}
	}
}
