package mathx

import "testing"

// denseSampleIndices is the reference sampler SampleIndices replaced: a
// partial Fisher–Yates over a materialized d-int permutation followed by
// an insertion sort. SampleIndices must match it draw for draw.
func denseSampleIndices(r *RNG, d, m int) []int {
	if m > d {
		m = d
	}
	scratch := make([]int, d)
	for i := range scratch {
		scratch[i] = i
	}
	dst := make([]int, m)
	for i := 0; i < m; i++ {
		j := i + r.IntN(d-i)
		scratch[i], scratch[j] = scratch[j], scratch[i]
		dst[i] = scratch[i]
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j] < dst[j-1]; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// sameSample reports whether SampleIndices' sample got equals the
// reference sample want.
func sameSample(got []uint32, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i, j := range want {
		if got[i] != uint32(j) {
			return false
		}
	}
	return true
}

// checkGuardClear fails t unless SampleIndices left the RNG's membership
// bitmap all zero, as the next call requires.
func checkGuardClear(t *testing.T, r *RNG, d, m int) {
	t.Helper()
	for w, b := range r.bits {
		if b != 0 {
			t.Fatalf("(d=%d, m=%d): bitmap word %d = %#x after the call, want 0", d, m, w, b)
		}
	}
}

func TestSampleIndicesMatchesDenseShuffle(t *testing.T) {
	shapes := NewRNG(12)
	sparse, dense := NewRNG(99), NewRNG(99)
	var dst []uint32
	for trial := 0; trial < 3000; trial++ {
		d := 1 + shapes.IntN(300)
		if trial%7 == 0 {
			d = 1 + shapes.IntN(5000) // small m over a wide domain
		}
		var m int
		switch trial % 4 {
		case 0:
			m = d // full permutation
		case 1:
			m = d + 1 + shapes.IntN(5) // clamped
		default:
			m = 1 + shapes.IntN(d)
		}
		dst = sparse.SampleIndices(d, m, dst)
		want := denseSampleIndices(dense, d, m)
		if !sameSample(dst, want) {
			t.Fatalf("trial %d (d=%d, m=%d): sparse %v, dense %v", trial, d, m, dst, want)
		}
		checkGuardClear(t, sparse, d, m)
		// The shared stream must stay in lockstep after the call too.
		if a, b := sparse.Float64(), dense.Float64(); a != b {
			t.Fatalf("trial %d: streams diverged after sampling", trial)
		}
	}
}

func TestSampleIndicesLargeD(t *testing.T) {
	// Large domains with small samples: the reverse Floyd pass must
	// still reproduce the dense shuffle exactly, and leave the bitmap
	// clear, whether the sample is ordered through the bitmap
	// ((8192, 32)) or by sorting.
	sparse, dense := NewRNG(5), NewRNG(5)
	for _, sh := range []struct{ d, m int }{{1 << 20, 64}, {8192, 32}, {65536, 32}} {
		for trial := 0; trial < 50; trial++ {
			got := sparse.SampleIndices(sh.d, sh.m, nil)
			if want := denseSampleIndices(dense, sh.d, sh.m); !sameSample(got, want) {
				t.Fatalf("(d=%d, m=%d) trial %d: sparse %v, dense %v", sh.d, sh.m, trial, got, want)
			}
			checkGuardClear(t, sparse, sh.d, sh.m)
		}
	}
}

func TestSampleIndicesZeroAlloc(t *testing.T) {
	r := NewRNG(3)
	dst := make([]uint32, 32)
	r.SampleIndices(1024, 32, dst) // size the RNG's scratch once
	allocs := testing.AllocsPerRun(200, func() {
		dst = r.SampleIndices(1024, 32, dst)
	})
	if allocs != 0 {
		t.Fatalf("SampleIndices into a sized dst: %v allocs/op, want 0", allocs)
	}
}

// FuzzSampleIndicesParity: for any seed and shape, SampleIndices returns
// the dense shuffle's sample and leaves the stream where the dense
// shuffle leaves it, on both sides of orderSample's bitmap/sort rule
// (the seeds hold shapes of each), and leaves the bitmap all zero for
// the next call — checked on two calls through one RNG.
func FuzzSampleIndicesParity(f *testing.F) {
	for _, c := range []struct {
		seed uint64
		d, m uint32
	}{
		{1, 1024, 32},  // bitmap
		{2, 16384, 32}, // bitmap, at the rule's edge
		{3, 16385, 32}, // sort, just past it
		{4, 2048, 8},   // sort
		{5, 1024, 8},   // bitmap
		{6, 10, 3},     // sort (m < 8)
		{7, 300, 300},  // full permutation
		{8, 5, 9},      // clamped
		{9, 1, 1},
	} {
		f.Add(c.seed, c.d, c.m)
	}
	f.Fuzz(func(t *testing.T, seed uint64, d, m uint32) {
		dd := max(1, int(d%(1<<17)))
		mm := int(m % 1024)
		sparse, dense := NewRNG(seed), NewRNG(seed)
		var dst []uint32
		for call := 0; call < 2; call++ {
			dst = sparse.SampleIndices(dd, mm, dst)
			if want := denseSampleIndices(dense, dd, mm); !sameSample(dst, want) {
				t.Fatalf("call %d (d=%d, m=%d): got %v, dense %v", call, dd, mm, dst, want)
			}
			checkGuardClear(t, sparse, dd, mm)
			if a, b := sparse.Float64(), dense.Float64(); a != b {
				t.Fatalf("call %d (d=%d, m=%d): streams diverged after sampling", call, dd, mm)
			}
		}
	})
}

func TestReseedMatchesNewRNG(t *testing.T) {
	r := NewRNG(1)
	r.SampleIndices(100, 10, nil) // dirty the stream and the scratch
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		r.Reseed(seed)
		fresh := NewRNG(seed)
		if r.Seed() != seed {
			t.Fatalf("Seed() = %d after Reseed(%d)", r.Seed(), seed)
		}
		for i := 0; i < 16; i++ {
			if a, b := r.Float64(), fresh.Float64(); a != b {
				t.Fatalf("seed %d draw %d: reseeded %v, fresh %v", seed, i, a, b)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Reseed(7) }); allocs != 0 {
		t.Fatalf("Reseed: %v allocs/op, want 0", allocs)
	}
}

func TestChildSeed(t *testing.T) {
	r := NewRNG(77)
	for i := uint64(0); i < 8; i++ {
		c := r.Child(i)
		if c.Seed() != r.ChildSeed(i) {
			t.Fatalf("Child(%d).Seed() = %#x, ChildSeed = %#x", i, c.Seed(), r.ChildSeed(i))
		}
	}
}

// TestSampleIndicesClearsSummary: a sparse sample's read-back, led by
// the bitmap summary, leaves the summary all zero as well as the bitmap,
// so the next call's summary marks only its own words.
func TestSampleIndicesClearsSummary(t *testing.T) {
	r := NewRNG(3)
	for _, sh := range []struct{ d, m int }{{1 << 20, 32}, {65536, 32}, {4096, 16}, {2048, 8}, {1024, 32}} {
		for trial := 0; trial < 50; trial++ {
			r.SampleIndices(sh.d, sh.m, nil)
			checkGuardClear(t, r, sh.d, sh.m)
			for s, w := range r.sum {
				if w != 0 {
					t.Fatalf("(d=%d, m=%d): summary word %d = %#x after the call, want 0", sh.d, sh.m, s, w)
				}
			}
		}
	}
}
