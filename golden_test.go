package hdr4me

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"testing"
)

// Golden report streams: FNV-64a digests of the exact reports (and
// estimate bits) the user-side randomize path produces for fixed seeds.
// They pin the stream bit for bit, so any change to sampling, seeding or
// perturbation that alters even one draw fails here. Never update a digest
// to make a change pass: a new value means the change is not stream-
// preserving.

// goldenShapes are the (d, m) report shapes every mechanism is pinned at.
var goldenShapes = []struct{ d, m int }{{1024, 32}, {32, 1}, {8, 8}}

// goldenTuple fills a deterministic tuple for user u in [−1, 1].
func goldenTuple(u, d int) Tuple {
	vals := make([]float64, d)
	for j := range vals {
		vals[j] = math.Sin(float64(u*131 + j*17 + 1))
	}
	return Tuple{Values: vals}
}

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
		binary.LittleEndian.PutUint32(b[:4], uint32(len(r.Values)))
		h.Write(b[:4])
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

// goldenSessionReport pins Session.Report for every registered mechanism
// at every golden shape (mean family).
var goldenSessionReport = map[string]uint64{
	"duchi/d=1024/m=32":      0xf5d1e2536f65645f,
	"duchi/d=32/m=1":         0xb30227f7e7104eca,
	"duchi/d=8/m=8":          0xbfb1d43632b78a5,
	"hybrid/d=1024/m=32":     0xa1813bce69cc94df,
	"hybrid/d=32/m=1":        0xd9836f911f52cbc4,
	"hybrid/d=8/m=8":         0x4d12595d803f8da5,
	"laplace/d=1024/m=32":    0xead7b1bc47f7fe3f,
	"laplace/d=32/m=1":       0x5ba8adc21153c432,
	"laplace/d=8/m=8":        0xa19839135ec9b1aa,
	"piecewise/d=1024/m=32":  0xec4f7846201ee10d,
	"piecewise/d=32/m=1":     0x8ddf303f3655e295,
	"piecewise/d=8/m=8":      0x43c250f2e26a1bfb,
	"scdf/d=1024/m=32":       0xeb611ad405f104b7,
	"scdf/d=32/m=1":          0xf94db16edb7ecd0b,
	"scdf/d=8/m=8":           0x4e38226b6e635853,
	"squarewave/d=1024/m=32": 0x739f0a6f8a85561c,
	"squarewave/d=32/m=1":    0x2304b896bf1d2b71,
	"squarewave/d=8/m=8":     0xeee3b455bfcba2fb,
	"staircase/d=1024/m=32":  0xb62acded63f649f9,
	"staircase/d=32/m=1":     0x2cf9c4ca128363b8,
	"staircase/d=8/m=8":      0xa01c33552cf35998,
}

func TestGoldenSessionReportStreams(t *testing.T) {
	const users = 200
	for _, name := range MechanismNames() {
		mech, err := MechanismByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range goldenShapes {
			key := fmt.Sprintf("%s/d=%d/m=%d", name, sh.d, sh.m)
			s, err := New(WithMechanism(mech), WithBudget(1.0), WithDims(sh.d, sh.m), WithSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			reps := make([]Report, users)
			for u := range reps {
				if reps[u], err = s.Report(goldenTuple(u, sh.d)); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := digestReports(reps), goldenSessionReport[key]; got != want {
				t.Errorf("%s: digest %#x, want %#x", key, got, want)
			}
		}
	}
}

// goldenOther pins the remaining user-side paths that draw through the
// session's substreams: Observe (lane-rotated accumulation), Run, and the
// frequency and whole-tuple families' detached reports.
var goldenOther = map[string]uint64{
	"observe/piecewise/d=64/m=8": 0x7662e3ca85a1546a,
	"run/laplace/d=32/m=4":       0xe69fd52128b1cd41,
	"report/freq/squarewave":     0x39101f557b39cd0f,
	"report/wholetuple/d=16":     0xc06c738caebbf8a5,
}

func TestGoldenSessionOtherStreams(t *testing.T) {
	check := func(key string, got uint64) {
		t.Helper()
		if want := goldenOther[key]; got != want {
			t.Errorf("%s: digest %#x, want %#x", key, got, want)
		}
	}

	// Observe → naive estimate bits.
	s, err := New(WithMechanism(Piecewise()), WithBudget(1.0), WithDims(64, 8), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 500; u++ {
		if err := s.Observe(goldenTuple(u, 64)); err != nil {
			t.Fatal(err)
		}
	}
	check("observe/piecewise/d=64/m=8", digestFloats(s.Estimate()))

	// Run → naive estimate bits (fixed worker count).
	s, err = New(WithMechanism(Laplace()), WithBudget(1.0), WithDims(32, 4), WithSeed(13), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), NewGaussianDataset(600, 32, 5))
	if err != nil {
		t.Fatal(err)
	}
	check("run/laplace/d=32/m=4", digestFloats(res.Naive))

	// Frequency family detached reports.
	cards := []int{3, 5, 2, 4, 6, 3}
	fs, err := New(WithMechanism(SquareWave()), WithBudget(2.0), WithCards(cards), WithDims(len(cards), 2), WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]Report, 200)
	for u := range reps {
		cats := make([]int, len(cards))
		for j := range cats {
			cats[j] = (u*7 + j*3) % cards[j]
		}
		if reps[u], err = fs.Report(Tuple{Cats: cats}); err != nil {
			t.Fatal(err)
		}
	}
	check("report/freq/squarewave", digestReports(reps))

	// Whole-tuple family detached reports.
	ws, err := New(WithWholeTuple(), WithBudget(1.0), WithDims(16, 16), WithSeed(19))
	if err != nil {
		t.Fatal(err)
	}
	for u := range reps {
		if reps[u], err = ws.Report(goldenTuple(u, 16)); err != nil {
			t.Fatal(err)
		}
	}
	check("report/wholetuple/d=16", digestReports(reps))
}

// TestSessionReportConcurrentStreams: concurrent Report calls share the
// pooled per-call RNGs, yet each call still draws exactly its own
// substream, so the multiset of reports equals a sequential run's.
func TestSessionReportConcurrentStreams(t *testing.T) {
	const d, m, goroutines, per = 256, 8, 4, 100
	newSession := func() *Session {
		s, err := New(WithMechanism(Piecewise()), WithBudget(1.0), WithDims(d, m), WithSeed(23))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tup := goldenTuple(0, d)
	seq := newSession()
	want := make([]uint64, goroutines*per)
	for i := range want {
		rep, err := seq.Report(tup)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = digestReports([]Report{rep})
	}
	conc := newSession()
	got := make([]uint64, goroutines*per)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rep, err := conc.Report(tup)
				if err != nil {
					t.Error(err)
					return
				}
				got[g*per+i] = digestReports([]Report{rep})
			}
		}(g)
	}
	wg.Wait()
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatal("concurrent Session.Report produced a different multiset of reports than a sequential run")
	}
}
