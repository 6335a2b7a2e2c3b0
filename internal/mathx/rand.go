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
// Its draws are those of math/rand/v2's Rand over the same PCG: Float64,
// Uniform, IntN and Bernoulli call the PCG directly with the standard
// library's formulas (the 64-bit IntN reduction on every platform), and
// the remaining samplers go through a rand.Rand. A seed therefore names
// one stream whichever entry point consumes it.
//
// RNG is not safe for concurrent use; give each goroutine its own Child.
// An RNG must not be copied by value (its source points into itself); a
// hot path that needs many short substreams reuses one RNG through Reseed
// instead of allocating a Child per substream.
type RNG struct {
	pcg  rand.PCG
	src  rand.Rand // draws from &pcg; for Normal, Exponential and Perm
	seed uint64
	// SampleIndices' scratch, reused across calls: bits marks the
	// positions ≥ m its shuffle has displaced (all zero between calls),
	// and moved[k] now holds held[k].
	bits        []uint64
	moved, held []int
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

// Float64 returns a uniform value in [0, 1): rand.Rand.Float64's 53-bit
// formula over one PCG draw.
func (r *RNG) Float64() float64 { return float64(r.pcg.Uint64()<<11>>11) / (1 << 53) }

// Uniform returns a uniform value in [a, b).
func (r *RNG) Uniform(a, b float64) float64 { return a + (b-a)*r.Float64() }

// IntN returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("invalid argument to IntN")
	}
	return int(r.uint64n(uint64(n)))
}

// uint64n is rand.Rand's 64-bit reduction of one PCG draw to [0, n): a
// mask when n is a power of two, otherwise Lemire's multiply-high with
// rejection of the 2⁶⁴ mod n lowest products (computed only when the
// first product lands below n).
func (r *RNG) uint64n(n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.pcg.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.pcg.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.pcg.Uint64(), n)
		}
	}
	return hi
}

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }

// Normal returns a N(mu, sigma²) sample.
func (r *RNG) Normal(mu, sigma float64) float64 { return mu + sigma*r.src.NormFloat64() }

// Laplace returns a Laplace(0, scale) sample (density exp(−|x|/scale)/2scale).
func (r *RNG) Laplace(scale float64) float64 {
	u := r.Float64() - 0.5
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
	u := r.Float64()
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
			p *= r.Float64()
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
		u := r.Float64() - 0.5
		v := r.Float64()
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
// shuffle over a virtual permutation of [0, d): dst holds positions
// [0, m), and a position j ≥ m the shuffle has displaced has its bit set
// in the RNG's bitmap, with its current value kept in two O(m) slices the
// RNG owns and reuses. The slices are scanned only when a target's bit is
// already set, about m²/2d times per sample. The sample is then ordered
// (see orderSample), which leaves the bitmap all zero again. It allocates
// only when dst is too small or the RNG's scratch first grows to a larger
// shape. It draws exactly the IntN sequence of a dense Fisher–Yates over
// a d-int permutation and returns the same subset, so a seed yields the
// same sample stream as that dense shuffle; the ordering step draws
// nothing.
func (r *RNG) SampleIndices(d, m int, dst []int) []int {
	if m > d {
		m = d
	}
	if cap(dst) < m {
		dst = make([]int, m)
	}
	dst = dst[:m]
	for k := range dst {
		dst[k] = k
	}
	if words := (d + 63) >> 6; cap(r.bits) < words {
		r.bits = make([]uint64, words)
	}
	if cap(r.moved) < m {
		r.moved, r.held = make([]int, 0, m), make([]int, 0, m)
	}
	bm := r.bits
	moved, held := r.moved[:0], r.held[:0]
	for i := 0; i < m; i++ {
		j := i + r.IntN(d-i)
		if j < m {
			dst[i], dst[j] = dst[j], dst[i]
			continue
		}
		w, b := j>>6, uint64(1)<<(uint(j)&63)
		if bm[w]&b == 0 {
			// First visit: position j still holds j.
			bm[w] |= b
			moved, held = append(moved, j), append(held, dst[i])
			dst[i] = j
			continue
		}
		k := slices.Index(moved, j)
		dst[i], held[k] = held[k], dst[i]
	}
	r.moved, r.held = moved, held
	r.orderSample(dst, d)
	return dst
}

// orderSample sorts the distinct sample dst of [0, d) in increasing order
// and clears the shuffle's guard bits. The members of dst that are ≥ m
// are exactly the positions the shuffle visited first-hand (a revisited
// position hands back a value < m), so their bits are the ones set in
// the bitmap. When m ≥ 8 and the bitmap's w = ⌈d/64⌉ words are at most
// m²/8, it sets the remaining members' bits and reads the bitmap back in
// order, in O(w + m); otherwise it calls slices.Sort, in O(m log m), and
// clears the guard bits through the displaced list. slices.Sort is an
// insertion sort below 13 elements and mispredicts heavily above, so the
// break-even w grows faster than m; BenchmarkSampleOrder holds rows on
// both sides of the rule at m = 8, 16 and 32. The ordering draws
// nothing, so either branch returns the same slice. (m² overflows only
// for a dst larger than memory.)
func (r *RNG) orderSample(dst []int, d int) {
	m := len(dst)
	if m < 8 || (d+63)>>6 > m*m/8 {
		slices.Sort(dst)
		for _, j := range r.moved {
			r.bits[j>>6] = 0
		}
		return
	}
	r.orderBitmap(dst, d)
}

// orderBitmap orders the distinct sample dst of [0, d) through the RNG's
// bitmap, clearing each word as it is read so the bitmap is all zero
// again on return. Bits already set for members of dst are harmless.
func (r *RNG) orderBitmap(dst []int, d int) {
	words := (d + 63) >> 6
	if cap(r.bits) < words {
		r.bits = make([]uint64, words)
	}
	bm := r.bits[:words]
	for _, v := range dst {
		bm[v>>6] |= 1 << (uint(v) & 63)
	}
	k := 0
	for w := 0; k < len(dst); w++ {
		b := bm[w]
		if b == 0 {
			continue
		}
		bm[w] = 0
		for ; b != 0; b &= b - 1 {
			dst[k] = w<<6 | bits.TrailingZeros64(b)
			k++
		}
	}
}
