package mathx

import (
	"math"
	"math/bits"
	"math/rand/v2"
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
	// bits is SampleIndices' membership bitmap over [0, d), and sum its
	// summary: bit w of sum marks a member in bits[w]. Both are reused
	// across calls and all zero between them.
	bits, sum []uint64
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

// Float64s fills dst with successive Float64 draws: dst[i] is what the
// i-th of len(dst) Float64 calls would return, without a call per draw.
func (r *RNG) Float64s(dst []float64) {
	for i := range dst {
		dst[i] = float64(r.pcg.Uint64()<<11>>11) / (1 << 53)
	}
}

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
// increasing order (m is clamped to d; d must not exceed 2³²).
//
// It draws exactly what a partial Fisher–Yates shuffle over a virtual
// permutation of [0, d) draws — jᵢ = i + IntN(d−i) for i = 0, 1, …, m−1,
// in that order — and returns the subset that shuffle leaves in
// positions [0, m), so a seed yields the same sample stream as the
// dense shuffle. The subset is built without the permutation, by
// Floyd's sampler (Bentley & Floyd, "A Sample of Brilliance", CACM 1987)
// run over the draws in reverse: for i = m−1 down to 0, add jᵢ, or i if
// jᵢ is already in. Why this is the shuffle's subset: let Tᵢ be the
// positions, as they stand before swap i, whose contents end in [i, m).
// Swap i exchanges positions i and jᵢ, and Tᵢ₊₁ ⊆ [i+1, d), so those
// contents are the one swap i moves to i (from jᵢ) plus those of Tᵢ₊₁,
// where a member jᵢ of Tᵢ₊₁ now holds what stood at i. Hence
// Tᵢ = Tᵢ₊₁ ∪ {jᵢ} when jᵢ ∉ Tᵢ₊₁ and Tᵢ₊₁ ∪ {i} otherwise; each step
// adds a new member, since i ∉ Tᵢ₊₁. Before swap 0 every position holds
// itself, so T₀ is the sample.
//
// The draws go into dst first; the Floyd pass marks members in the
// RNG's bitmap, which orderSample then reads back in order, leaving it
// (and its summary) all zero. The ordering draws nothing. It allocates
// only when dst is too small or the bitmap first grows to a larger d.
func (r *RNG) SampleIndices(d, m int, dst []uint32) []uint32 {
	if uint64(d) > 1<<32 {
		panic("mathx: SampleIndices domain exceeds 2³²")
	}
	m = min(m, d)
	if cap(dst) < m {
		dst = make([]uint32, m)
	}
	dst = dst[:m]
	for i := range dst {
		dst[i] = uint32(i + r.IntN(d-i))
	}
	if words := (d + 63) >> 6; cap(r.bits) < words {
		r.bits = make([]uint64, words)
		r.sum = make([]uint64, (words+63)>>6)
	}
	bm := r.bits
	for i := m - 1; i >= 0; i-- {
		j := dst[i]
		if bm[j>>6]&(1<<(j&63)) != 0 {
			j = uint32(i)
		}
		bm[j>>6] |= 1 << (j & 63)
		dst[i] = j
	}
	r.orderSample(dst, d)
	return dst
}

// orderSample sorts the sample dst of [0, d), whose members are the bits
// set in the RNG's bitmap, by reading the bitmap back: word by word when
// it has at most one word per member (⌈d/64⌉ ≤ m), else led by a
// summary of the non-empty words, built only then because building it
// costs a dense read more than it saves. On a 2-core Xeon
// BenchmarkSampleOrder read ~75 ns at (1024, 32) word by word, and
// 130–240 ns from (8192, 32) to (65536, 32) and ~500 ns at (2²⁰, 32)
// through the summary, against ~590 ns for slices.Sort at every m = 32
// row; no row favoured the sort, so nothing sorts.
func (r *RNG) orderSample(dst []uint32, d int) {
	if (d+63)>>6 <= len(dst) {
		r.orderBitmap(dst)
		return
	}
	r.summarize(dst, d)
	r.orderSparse(dst)
}

// summarize marks the bitmap word of every member of the sample dst of
// [0, d) in the summary. Up to d = 4096 the summary is one word, built
// in a register: or-ing each member into it in memory would chain every
// update through the previous one's store.
func (r *RNG) summarize(dst []uint32, d int) {
	if d <= 1<<12 {
		var w uint64
		for _, j := range dst {
			w |= 1 << (j >> 6)
		}
		r.sum[0] = w
		return
	}
	sm := r.sum
	for _, j := range dst {
		sm[j>>12] |= 1 << (j >> 6 & 63)
	}
}

// orderBitmap writes the members of the RNG's bitmap into dst in
// increasing order, clearing each word as it is read so the bitmap is
// all zero again on return. dst must hold exactly as many slots as the
// bitmap has members.
//
// A sparse sample puts a word's member count anywhere from 0 to a few,
// so a loop over each word's members mispredicts its trip count on
// nearly every word. While four slots of dst remain, each word instead
// gets a fixed run of four lowest-bit extractions, written unconditionally
// (an extraction past the word's last member writes a placeholder that a
// later word overwrites, since every slot below len(dst) is eventually
// filled), and k advances by the word's population count. Only words
// with more than four members loop, and the last few slots take the
// plain loop.
func (r *RNG) orderBitmap(dst []uint32) {
	bm := r.bits
	m := len(dst)
	k, w := 0, 0
	for ; k+4 <= m; w++ {
		b := bm[w]
		bm[w] = 0
		base := uint32(w << 6)
		n := bits.OnesCount64(b)
		out := dst[k : k+4 : k+4]
		out[0] = base | uint32(bits.TrailingZeros64(b))
		b &= b - 1
		out[1] = base | uint32(bits.TrailingZeros64(b))
		b &= b - 1
		out[2] = base | uint32(bits.TrailingZeros64(b))
		b &= b - 1
		out[3] = base | uint32(bits.TrailingZeros64(b))
		b &= b - 1
		k += min(n, 4)
		for ; b != 0; b &= b - 1 {
			dst[k] = base | uint32(bits.TrailingZeros64(b))
			k++
		}
	}
	for ; k < m; w++ {
		b := bm[w]
		bm[w] = 0
		for ; b != 0; b &= b - 1 {
			dst[k] = uint32(w<<6 | bits.TrailingZeros64(b))
			k++
		}
	}
}

// orderSparse is orderBitmap for a sparse bitmap, led by the summary: it
// visits only the words the summary marks, in O(⌈d/4096⌉ + m), and
// clears the summary too. Those words mostly hold one member each, so
// the plain loop over a word's members predicts well.
func (r *RNG) orderSparse(dst []uint32) {
	bm, sm := r.bits, r.sum
	k := 0
	for s := 0; k < len(dst); s++ {
		for sw := sm[s]; sw != 0; sw &= sw - 1 {
			w := s<<6 | bits.TrailingZeros64(sw)
			for b := bm[w]; b != 0; b &= b - 1 {
				dst[k] = uint32(w<<6 | bits.TrailingZeros64(b))
				k++
			}
			bm[w] = 0
		}
		sm[s] = 0
	}
}
