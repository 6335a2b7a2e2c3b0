package mathx

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bin empirical histogram over [Lo, Hi). Values outside
// the range are counted in the clipped tallies but excluded from the bins,
// matching how the experiment figures treat out-of-frame samples.
type Histogram struct {
	Lo, Hi  float64
	Counts  []int64
	Total   int64 // number of in-range observations
	Clipped int64 // number of out-of-range observations
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if !(hi > lo) || bins < 1 {
		panic(fmt.Sprintf("mathx: invalid histogram range [%v,%v) with %d bins", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) || x < h.Lo || x >= h.Hi {
		h.Clipped++
		return
	}
	i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i == len(h.Counts) { // x == Hi after rounding
		i--
	}
	h.Counts[i]++
	h.Total++
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// Center returns the midpoint of bin i.
func (h *Histogram) Center(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Density returns the empirical pdf estimate at bin i: count/(total·width).
// Densities integrate to 1 over the in-range mass.
func (h *Histogram) Density(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / (float64(h.Total) * h.BinWidth())
}
