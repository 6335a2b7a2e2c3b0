package mathx

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
)

// stdlibTwin returns a math/rand/v2 Rand over a PCG seeded exactly as
// NewRNG(seed) seeds its own.
func stdlibTwin(seed uint64) *rand.Rand {
	s := splitmix64(seed)
	return rand.New(rand.NewPCG(s, splitmix64(s)))
}

// intNShapes are the IntN bounds the equivalence test covers: 1, 2, 3,
// every power of two and its neighbours, and the two largest bounds whose
// Lemire rejection is frequent (2⁶²+1) and rare (MaxInt).
func intNShapes() []int {
	ns := []int{1, 2, 3, math.MaxInt, 1<<(bits.UintSize-2) + 1}
	for k := 2; k < bits.UintSize-1; k++ {
		ns = append(ns, 1<<k-1, 1<<k, 1<<k+1)
	}
	return ns
}

// TestRNGMatchesStdlib: RNG's direct PCG draws (Float64, Float64s,
// Uniform, IntN, Bernoulli) must agree draw for draw with math/rand/v2
// over the same seeded PCG, for every IntN bound shape and with calls
// interleaved — including the samplers that still go through rand.Rand,
// so the shared generator state is checked too.
func TestRNGMatchesStdlib(t *testing.T) {
	if bits.UintSize != 64 {
		t.Skip("rand.Rand reduces IntN bounds below 2³² with its 32-bit path on 32-bit platforms; RNG always uses the 64-bit one")
	}
	ns := intNShapes()
	for _, seed := range []uint64{0, 1, 42, 1 << 63, math.MaxUint64} {
		r, ref := NewRNG(seed), stdlibTwin(seed)
		plan := NewRNG(seed ^ 0x5eed) // picks the call sequence
		for step := 0; step < 20000; step++ {
			var got, want float64
			op := plan.IntN(8)
			switch op {
			case 0:
				got, want = r.Float64(), ref.Float64()
			case 1:
				a, b := plan.Uniform(-5, 5), plan.Uniform(-5, 5)
				got, want = r.Uniform(a, b), a+(b-a)*ref.Float64()
			case 2, 3:
				n := ns[plan.IntN(len(ns))]
				got, want = float64(r.IntN(n)), float64(ref.IntN(n))
			case 4:
				p := plan.Float64()
				got, want = b2f(r.Bernoulli(p)), b2f(ref.Float64() < p)
			case 5:
				got, want = r.Normal(0, 1), ref.NormFloat64()
			case 6:
				got, want = r.Exponential(1), ref.ExpFloat64()
			case 7:
				var buf [5]float64
				fill := buf[:1+plan.IntN(len(buf))]
				r.Float64s(fill)
				for i, v := range fill[:len(fill)-1] {
					if w := ref.Float64(); v != w {
						t.Fatalf("seed %#x step %d: Float64s[%d] = %v, math/rand/v2 %v", seed, step, i, v, w)
					}
				}
				got, want = fill[len(fill)-1], ref.Float64()
			}
			if got != want {
				t.Fatalf("seed %#x step %d op %d: RNG drew %v, math/rand/v2 %v", seed, step, op, got, want)
			}
		}
		if a, b := r.Perm(50), ref.Perm(50); !slices.Equal(a, b) {
			t.Fatalf("seed %#x: Perm diverged after the interleaved draws", seed)
		}
	}
}

// TestRNGIntNEveryShape runs a long stream of each IntN bound on its own,
// so the rejection branch of every large shape is exercised many times.
func TestRNGIntNEveryShape(t *testing.T) {
	if bits.UintSize != 64 {
		t.Skip("see TestRNGMatchesStdlib")
	}
	for i, n := range intNShapes() {
		r, ref := NewRNG(uint64(i)), stdlibTwin(uint64(i))
		for k := 0; k < 2000; k++ {
			if a, b := r.IntN(n), ref.IntN(n); a != b {
				t.Fatalf("n=%d draw %d: RNG %d, math/rand/v2 %d", n, k, a, b)
			}
		}
	}
}

func TestRNGIntNPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, math.MinInt} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("IntN(%d) did not panic", n)
				}
			}()
			NewRNG(1).IntN(n)
		}()
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
