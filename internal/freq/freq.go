// Package freq implements the paper's §V-C extension: high-dimensional
// frequency estimation re-calibrated by HDR4ME. Each of d categorical
// dimensions with cardinality vⱼ is histogram-encoded into a vⱼ-entry
// one-hot vector; a user samples m dimensions and perturbs every entry of
// each sampled dimension's vector with budget ε/(2m) (changing a category
// flips two entries, so ε-LDP holds collectively). The per-entry means the
// collector aggregates *are* the frequency estimates, so the whole §IV
// framework and the HDR4ME re-calibration apply verbatim to the expanded
// numerical space.
//
// Entries live in {0, 1}; they are mapped affinely onto the mechanism
// domain [−1, 1] (0 ↦ −1, 1 ↦ +1), perturbed, aggregated in that released
// frame, re-calibrated there, and mapped back before the final
// clip-and-renormalize projection onto the probability simplex.
package freq

import (
	"fmt"
	"math"

	"github.com/hdr4me/hdr4me/internal/analysis"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/recal"
)

// CatDataset is a population of users holding categorical tuples.
// Implementations must be deterministic per user index and safe for
// concurrent Value calls.
type CatDataset interface {
	// Name identifies the dataset.
	Name() string
	// NumUsers returns the population size.
	NumUsers() int
	// Cards returns the cardinality of each dimension.
	Cards() []int
	// Value returns user i's category in dimension j, in [0, Cards()[j]).
	Value(i, j int) int
}

// TrueFreqs streams the dataset and returns the exact per-dimension
// category frequencies.
func TrueFreqs(ds CatDataset) [][]float64 {
	cards := ds.Cards()
	out := make([][]float64, len(cards))
	counts := make([][]int64, len(cards))
	for j, v := range cards {
		out[j] = make([]float64, v)
		counts[j] = make([]int64, v)
	}
	n := ds.NumUsers()
	for i := 0; i < n; i++ {
		for j := range cards {
			counts[j][ds.Value(i, j)]++
		}
	}
	for j := range cards {
		for k := range out[j] {
			out[j][k] = float64(counts[j][k]) / float64(n)
		}
	}
	return out
}

// Protocol fixes the frequency-collection parameters.
type Protocol struct {
	Mech ldp.Mechanism
	Eps  float64
	// Cards lists the category count of each dimension.
	Cards []int
	// M is the number of dimensions each user reports.
	M int
}

// Validate checks the protocol invariants.
func (p Protocol) Validate() error {
	if p.Mech == nil {
		return fmt.Errorf("freq: nil mechanism")
	}
	if !(p.Eps > 0) || math.IsInf(p.Eps, 0) {
		return fmt.Errorf("freq: budget %v must be finite and positive", p.Eps)
	}
	if len(p.Cards) == 0 {
		return fmt.Errorf("freq: no dimensions")
	}
	for j, v := range p.Cards {
		if v < 2 {
			return fmt.Errorf("freq: dimension %d has cardinality %d < 2", j, v)
		}
	}
	if p.M < 1 || p.M > len(p.Cards) {
		return fmt.Errorf("freq: m=%d must be in [1, %d]", p.M, len(p.Cards))
	}
	return nil
}

// EpsPerEntry returns ε/(2m), the paper's per-entry budget for histogram
// encoding [37].
func (p Protocol) EpsPerEntry() float64 { return p.Eps / (2 * float64(p.M)) }

// Aggregator accumulates per-entry sums in the released [−1, 1] frame.
// The per-dimension entry vectors are stored flattened (entry (j, k)
// lives at offsets[j]+k) inside a lock-striped ingest core (est.Ingest),
// so concurrent ingest paths do not serialize on one mutex.
type Aggregator struct {
	P Protocol

	offsets []int // flattened index of each dimension's first entry
	total   int   // Σⱼ card(j)
	acc     *est.Ingest[freqKernel]
}

// NewAggregator returns an empty frequency collector.
func NewAggregator(p Protocol) *Aggregator {
	a := &Aggregator{P: p, offsets: make([]int, len(p.Cards))}
	for j, v := range p.Cards {
		a.offsets[j] = a.total
		a.total += v
	}
	k := freqKernel{m: p.M, cards: p.Cards, offsets: a.offsets}
	a.acc = est.NewIngest(k, est.DefaultStripeCount, a.total, len(p.Cards))
	return a
}

// freqKernel is the frequency family's ingest kernel. A report lists at
// most m strictly increasing in-range dimensions and concatenates each
// one's card(j) finite released-frame entries, in the same order; entry
// (j, k) folds into flattened sum lane offsets[j]+k and each sampled
// dimension counts once.
type freqKernel struct {
	m              int
	cards, offsets []int
}

// Add implements est.Kernel.
func (k freqKernel) Add(l *est.Lanes, rep est.Report) error {
	if len(rep.Dims) > k.m {
		return fmt.Errorf("freq: report carries %d dims, protocol allows m=%d", len(rep.Dims), k.m)
	}
	want := 0
	for i, j := range rep.Dims {
		if int(j) >= len(k.cards) {
			return fmt.Errorf("freq: report dimension %d out of range [0, %d)", j, len(k.cards))
		}
		if i > 0 && j <= rep.Dims[i-1] {
			return fmt.Errorf("freq: report dimensions must be strictly increasing, have %v", rep.Dims)
		}
		want += k.cards[j]
	}
	if len(rep.Values) != want {
		return fmt.Errorf("freq: report has %d values, dims %v require %d", len(rep.Values), rep.Dims, want)
	}
	for _, v := range rep.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("freq: report value %v not finite", v)
		}
	}
	off := 0
	for _, j := range rep.Dims {
		card := k.cards[j]
		sums := l.Sums[k.offsets[j] : k.offsets[j]+card]
		for e, v := range rep.Values[off : off+card] {
			sums[e].Add(v)
		}
		l.Counts[j]++
		off += card
	}
	return nil
}

// Counts returns the per-dimension report counts.
func (a *Aggregator) Counts() []int64 { return a.CountsInto(nil) }

// CountsInto is Counts into dst (est.VectorFolder, through Flat).
func (a *Aggregator) CountsInto(dst []int64) []int64 { return a.acc.FoldCounts(dst) }

// Estimate returns the naive frequency estimates: per-entry released-frame
// means mapped back to [0, 1], without simplex projection. A dimension
// without reports estimates 1/2 in every entry.
func (a *Aggregator) Estimate() [][]float64 {
	f := est.GetScratch()
	f.Sums, f.Counts = a.acc.FoldInto(f.Sums, f.Counts)
	naive := naiveInto(a, make([]float64, a.total), f.Sums, f.Counts)
	est.PutScratch(f)
	return a.rows(naive)
}

// EstimateEnhanced applies HDR4ME per dimension in the [0, 1] frequency
// frame (the entry frame of the paper's histogram encoding): the deviation
// of a frequency estimate is half the released-frame deviation, and L1
// soft-thresholding shrinks toward frequency zero — rare categories are
// suppressed while dominant ones survive, matching the sparsity structure
// of frequency vectors. Deviations follow Lemma 2/3 with a plug-in two-atom
// spec per entry ({−1, +1} weighted by the entry's estimated frequency) for
// bounded mechanisms. Both the naive and enhanced estimates are returned so
// callers can compare; both come from one fold.
func (a *Aggregator) EstimateEnhanced(cfg recal.Config) (naive, enhanced [][]float64) {
	f := est.GetScratch()
	f.Sums, f.Counts = a.acc.FoldInto(f.Sums, f.Counts)
	flat := naiveInto(a, make([]float64, a.total), f.Sums, f.Counts)
	enh := a.enhanceInto(make([]float64, a.total), flat, f.Counts, cfg)
	est.PutScratch(f)
	return a.rows(flat), a.rows(enh)
}

// rows splits a flattened entry vector into per-dimension rows viewing
// it, each capped at its own entries.
func (a *Aggregator) rows(flat []float64) [][]float64 {
	out := make([][]float64, len(a.P.Cards))
	for j, card := range a.P.Cards {
		off := a.offsets[j]
		out[j] = flat[off : off+card : off+card]
	}
	return out
}

// naiveInto writes the flattened naive frequency estimates of the fold
// (sums, counts) into out — entry (j, k) at offsets[j]+k, the released
// mean mapped back to [0, 1] as (s/r + 1)/2 — and returns it. Entries of
// a dimension without reports take 1/2, the image of the released
// frame's zero mean. It is the one loop behind the naive, windowed,
// weighted and enhanced estimates of both the Aggregator and Flat.
func naiveInto[C int64 | float64](a *Aggregator, out, sums []float64, counts []C) []float64 {
	for j, card := range a.P.Cards {
		off := a.offsets[j]
		seg := out[off : off+card]
		if counts[j] == 0 {
			for k := range seg {
				seg[k] = 0.5
			}
			continue
		}
		for k := range seg {
			seg[k] = (sums[off+k]/float64(counts[j]) + 1) / 2
		}
	}
	return out
}

// enhanceInto writes the HDR4ME re-calibration of the flattened naive
// estimate into out (which may alias naive) and returns it: one step,
// built once, applied entry by entry. Dimensions without reports keep
// their naive entries.
func (a *Aggregator) enhanceInto(out, naive []float64, counts []int64, cfg recal.Config) []float64 {
	copy(out, naive)
	step := cfg.Step()
	fw := analysis.Framework{Mech: a.P.Mech, EpsPerDim: a.P.EpsPerEntry()}
	bounded := a.P.Mech.Bounded()
	// Unbounded moments ignore the data; bounded ones are re-evaluated per
	// entry, from its naive frequency, through one reused two-atom spec.
	var mom analysis.Moments
	if !bounded {
		mom = fw.Moments(nil)
	}
	spec := analysis.DataSpec{Values: []float64{-1, 1}, Probs: make([]float64, 2)}
	for j, card := range a.P.Cards {
		r := float64(counts[j])
		if r == 0 {
			continue
		}
		seg := out[a.offsets[j] : a.offsets[j]+card]
		for k, v := range seg {
			if bounded {
				f := mathx.Clamp(v, 1/(10*float64(card)), 1)
				spec.Probs[0], spec.Probs[1] = 1-f, f
				mom = fw.Moments(&spec)
			}
			dev := mom.At(r)
			// Map the released-frame Gaussian into the frequency frame:
			// f = (y+1)/2 halves the bias and quarters the variance.
			seg[k] = step.Apply(v, analysis.Deviation{Delta: dev.Delta / 2, Sigma2: dev.Sigma2 / 4})
		}
	}
	return out
}

// ProjectSimplex clips frequencies to [0, 1] and renormalizes each
// dimension to sum to 1 (uniform fallback if everything clipped to zero).
// It modifies freqs in place and returns it.
func ProjectSimplex(freqs [][]float64) [][]float64 {
	for j := range freqs {
		var sum float64
		for k := range freqs[j] {
			freqs[j][k] = mathx.Clamp(freqs[j][k], 0, 1)
			sum += freqs[j][k]
		}
		if sum <= 0 {
			u := 1 / float64(len(freqs[j]))
			for k := range freqs[j] {
				freqs[j][k] = u
			}
			continue
		}
		for k := range freqs[j] {
			freqs[j][k] /= sum
		}
	}
	return freqs
}
