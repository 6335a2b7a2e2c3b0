package mathx

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// RNG is a deterministic random source with the samplers needed by the LDP
// mechanisms and the synthetic dataset generators. It is splittable: Child
// derives an independent deterministic substream, which lets the experiment
// harness run trials in parallel while staying exactly reproducible.
//
// RNG is not safe for concurrent use; give each goroutine its own Child.
// An RNG must not be copied by value (its source points into itself); a
// hot path that needs many short substreams reuses one RNG through Reseed
// instead of allocating a Child per substream.
type RNG struct {
	pcg  rand.PCG
	src  rand.Rand // draws from &pcg
	seed uint64
	perm permTable // SampleIndices' shuffle state, reused across calls
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.src = *rand.New(&r.pcg)
	r.Reseed(seed)
	return r
}

// Reseed restarts r as the stream NewRNG(seed) would produce, without
// allocating.
func (r *RNG) Reseed(seed uint64) {
	s := splitmix64(seed)
	r.pcg.Seed(s, splitmix64(s))
	r.seed = seed
}

// splitmix64 is the standard SplitMix64 finalizer, used both to whiten seeds
// and to derive child streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ChildSeed returns the seed Child(i) would be constructed with.
func (r *RNG) ChildSeed(i uint64) uint64 {
	return splitmix64(r.seed^0xa5a5a5a5a5a5a5a5) + splitmix64(i)*0x9e3779b97f4a7c15
}

// Child derives the i-th independent substream of r's seed.
func (r *RNG) Child(i uint64) *RNG { return NewRNG(r.ChildSeed(i)) }

// Seed returns the seed the RNG was constructed with.
func (r *RNG) Seed() uint64 { return r.seed }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Uniform returns a uniform value in [a, b).
func (r *RNG) Uniform(a, b float64) float64 { return a + (b-a)*r.src.Float64() }

// IntN returns a uniform int in [0, n).
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.src.Float64() < p }

// Normal returns a N(mu, sigma²) sample.
func (r *RNG) Normal(mu, sigma float64) float64 { return mu + sigma*r.src.NormFloat64() }

// Laplace returns a Laplace(0, scale) sample (density exp(−|x|/scale)/2scale).
func (r *RNG) Laplace(scale float64) float64 {
	u := r.src.Float64() - 0.5
	if u < 0 {
		return scale * math.Log1p(2*u) // log(1 − 2|u|), negative branch
	}
	return -scale * math.Log1p(-2*u)
}

// Exponential returns an Exp(rate) sample with mean 1/rate.
func (r *RNG) Exponential(rate float64) float64 {
	return r.src.ExpFloat64() / rate
}

// Geometric returns a sample G ∈ {0,1,2,...} with P[G=g] = (1−q)·q^g,
// i.e. the number of failures before the first success with success
// probability 1−q. Used by the staircase mechanism with q = e^{−ε}.
func (r *RNG) Geometric(q float64) int {
	if q <= 0 {
		return 0
	}
	u := r.src.Float64()
	// Invert the CDF: smallest g with 1 − q^{g+1} ≥ u.
	g := math.Floor(math.Log1p(-u) / math.Log(q))
	if g < 0 {
		return 0
	}
	return int(g)
}

// Poisson returns a Poisson(lambda) sample. Knuth's product method is used
// for small lambda and the PTRS transformed-rejection sampler (Hörmann 1993)
// for large lambda.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.src.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	return r.poissonPTRS(lambda)
}

func (r *RNG) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLam := math.Log(lambda)
	for {
		u := r.src.Float64() - 0.5
		v := r.src.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLam-lambda-lg {
			return int(k)
		}
	}
}

// SampleIndices fills dst with a uniform random m-subset of [0, d) in
// increasing order (m is clamped to d). It runs a partial Fisher–Yates
// shuffle but stores only the positions the shuffle has displaced, in a
// table of O(m) ints the RNG owns and reuses. A call therefore costs at
// most O(m log m) time and O(m) space whatever d is, and allocates only
// when dst is too small or the table first grows to a larger m. It draws
// exactly the IntN sequence of a dense Fisher–Yates over a d-int
// permutation and returns the same subset, so a seed yields the same
// sample stream as that dense shuffle.
func (r *RNG) SampleIndices(d, m int, dst []int) []int {
	if m > d {
		m = d
	}
	if cap(dst) < m {
		dst = make([]int, m)
	}
	dst = dst[:m]
	r.perm.reset(m)
	for i := 0; i < m; i++ {
		j := i + r.src.IntN(d-i)
		// Swap positions i and j of the virtual permutation. Position i
		// is never read again, so only j's new value is recorded.
		vi := r.perm.get(i)
		dst[i] = r.perm.swapIn(j, vi)
	}
	slices.Sort(dst)
	return dst
}

// permTable is the sparse state of a partial Fisher–Yates shuffle over
// [0, d): an open-addressed map from displaced position to the value it
// now holds. A position absent from the table still holds its own index.
type permTable struct {
	slots []permSlot
	shift uint // 64 − log2(len(slots)), for Fibonacci hashing
}

// permSlot is one table entry; key is position+1, so zero marks a free slot.
type permSlot struct{ key, val int }

// reset empties the table and sizes it for m insertions at load ≤ 1/2.
func (t *permTable) reset(m int) {
	n := 8
	for n < 2*m {
		n <<= 1
	}
	if cap(t.slots) < n {
		t.slots = make([]permSlot, n)
	} else {
		t.slots = t.slots[:n]
		clear(t.slots)
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// find returns the slot holding position pos, or the free slot where it
// would be inserted.
func (t *permTable) find(pos int) *permSlot {
	mask := len(t.slots) - 1
	h := int((uint64(pos) * 0x9e3779b97f4a7c15) >> t.shift)
	for {
		s := &t.slots[h]
		if s.key == 0 || s.key == pos+1 {
			return s
		}
		h = (h + 1) & mask
	}
}

// get returns the value at position pos.
func (t *permTable) get(pos int) int {
	if s := t.find(pos); s.key != 0 {
		return s.val
	}
	return pos
}

// swapIn stores v at position pos and returns the value it replaces.
func (t *permTable) swapIn(pos, v int) int {
	s := t.find(pos)
	old := pos
	if s.key != 0 {
		old = s.val
	}
	s.key, s.val = pos+1, v
	return old
}
