package hdr4me

import (
	"context"
	"math"
	"testing"
)

func TestFacadeEMS(t *testing.T) {
	rng := NewRNG(61)
	col := make([]float64, 20_000)
	for i := range col {
		col[i] = math.Max(-1, math.Min(1, rng.Normal(0.3, 0.2)))
	}
	e := NewEMS(2)
	res, err := e.CollectAndEstimate(col, rng.Child(1))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range res.P {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("EMS distribution sums to %v", sum)
	}
	var trueMean float64
	for _, v := range col {
		trueMean += v
	}
	trueMean /= float64(len(col))
	if math.Abs(res.MeanCentered()-trueMean) > 0.05 {
		t.Fatalf("EMS mean %v, true %v", res.MeanCentered(), trueMean)
	}
}

func TestFacadeDuchiMD(t *testing.T) {
	ds := Memoize(NewGaussianDataset(20_000, 8, 63))
	m, err := NewDuchiMD(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := New(WithWholeTuple(), WithBudget(m.Eps), WithDims(m.D, 0), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if mse := MSE(res.Naive, ds.TrueMean()); mse > 0.01 {
		t.Fatalf("duchi-md facade MSE = %v", mse)
	}
}

func TestFacadeAllocation(t *testing.T) {
	a := UniformAllocation(1, 4, 2)
	if err := a.Validate(1, 2); err != nil {
		t.Fatal(err)
	}
	w, err := OptimalMSEAllocation(1, []float64{1, 1, 8, 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Eps[2] <= w.Eps[0] {
		t.Fatal("heavier weight must get more budget")
	}
	ds := NewUniformDataset(2000, 4, 65)
	sess, err := New(WithMechanism(Laplace()), WithBudget(1), WithDims(4, 2), WithAllocation(w), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Naive) != 4 {
		t.Fatal("bad estimate width")
	}
	if WeightedMSE([]float64{1, 1}, []float64{0, 0}, []float64{1, 3}) != 1 {
		t.Fatal("WeightedMSE identity broken")
	}
}

func TestFacadeFrequencyOracleTypesCompile(t *testing.T) {
	// The oracle baselines live in internal/freq; the facade deliberately
	// exposes only the paper's histogram-encoding pipeline. This test pins
	// that decision: the public surface collects frequencies through a
	// WithCards Session, and the baselines are reachable for benchmarks
	// via the internal package.
	cards := []int{3, 3}
	ds := NewUniformCatDataset(500, cards, 67)
	sess, err := New(WithCards(cards), WithMechanism(Laplace()), WithBudget(2), WithDims(len(cards), 1), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	est, err := sess.Freqs(res.Naive)
	if err != nil {
		t.Fatal(err)
	}
	freqs := ProjectSimplex(est)
	for _, row := range freqs {
		var sum float64
		for _, f := range row {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row sums to %v", sum)
		}
	}
}
