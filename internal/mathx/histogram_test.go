package mathx

import (
	"math"
	"testing"
)

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	h := NewHistogram(-1, 1, 40)
	r := NewRNG(12)
	for i := 0; i < 100_000; i++ {
		h.Add(r.Uniform(-1, 1))
	}
	var sum float64
	for i := range h.Counts {
		sum += h.Density(i) * h.BinWidth()
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("densities integrate to %v, want 1", sum)
	}
}

func TestHistogramClipping(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-0.5)
	h.Add(1.0) // hi is exclusive
	h.Add(0.5)
	h.Add(math.NaN())
	if h.Clipped != 3 || h.Total != 1 {
		t.Fatalf("clipped=%d total=%d, want 3/1", h.Clipped, h.Total)
	}
}

func TestHistogramBinPlacement(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(0.0)  // bin 0
	h.Add(0.26) // bin 1
	h.Add(0.51) // bin 2
	h.Add(0.99) // bin 3
	for i, want := range []int64{1, 1, 1, 1} {
		if h.Counts[i] != want {
			t.Fatalf("counts = %v", h.Counts)
		}
	}
	if c := h.Center(1); math.Abs(c-0.375) > 1e-15 {
		t.Fatalf("Center(1) = %v, want 0.375", c)
	}
}

func TestHistogramGaussianShape(t *testing.T) {
	// Empirical density of N(0,1) at the mode should approach φ(0)≈0.3989.
	h := NewHistogram(-4, 4, 80)
	r := NewRNG(13)
	for i := 0; i < 400_000; i++ {
		h.Add(r.Normal(0, 1))
	}
	mode := 0.0
	for i := range h.Counts {
		mode = max(mode, h.Density(i))
	}
	if want := NormPDF(0, 0, 1); math.Abs(mode-want) > 0.02 {
		t.Fatalf("mode density = %v, want ≈%v", mode, want)
	}
}

func TestHistogramInvalidArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(1, 1, 10)
}

func TestHistogramEmptyDensity(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	if h.Density(0) != 0 || h.Density(1) != 0 {
		t.Fatal("empty histogram must report zero density")
	}
}
