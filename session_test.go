package hdr4me

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSessionMeanFamilyRun(t *testing.T) {
	ds := Memoize(NewGaussianDataset(20_000, 50, 1))
	s, err := New(
		WithMechanism(Piecewise()),
		WithBudget(0.8),
		WithDims(50, 50),
		WithEnhance(DefaultEnhanceConfig(RegL1)),
		WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != KindMean {
		t.Fatalf("kind = %q", s.Kind())
	}
	res, err := s.Run(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	truth := ds.TrueMean()
	// ε/m = 0.016 is the paper's heavy-noise regime: the naive MSE is ≈1
	// by design; what matters is that HDR4ME improves on it.
	nm := MSE(res.Naive, truth)
	if nm > 5 {
		t.Fatalf("naive MSE = %v", nm)
	}
	if res.Enhanced == nil {
		t.Fatal("WithEnhance must populate Enhanced")
	}
	if em := MSE(res.Enhanced, truth); em >= nm {
		t.Fatalf("enhancement did not improve: naive %v, enhanced %v", nm, em)
	}
	var total int64
	for _, c := range res.Counts {
		total += c
	}
	if total != 20_000*50 {
		t.Fatalf("report count = %d", total)
	}
}

func TestSessionWholeTupleFamilyRun(t *testing.T) {
	ds := Memoize(NewGaussianDataset(20_000, 8, 63))
	// WithEnhance on a family without an enhancement path must not poison
	// Run: the round completes and Enhanced stays nil.
	s, err := New(WithWholeTuple(), WithBudget(4), WithDims(8, 0), WithSeed(3),
		WithEnhance(DefaultEnhanceConfig(RegL1)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != KindWholeTuple {
		t.Fatalf("kind = %q", s.Kind())
	}
	res, err := s.Run(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Enhanced != nil {
		t.Fatal("whole-tuple Enhanced must stay nil")
	}
	if mse := MSE(res.Naive, ds.TrueMean()); mse > 0.01 {
		t.Fatalf("whole-tuple MSE = %v", mse)
	}
	if _, err := s.EstimateEnhanced(); err == nil {
		t.Fatal("whole-tuple family must report no enhancement path")
	}
	if _, err := s.EstimateEnhancedWith(DefaultEnhanceConfig(RegL2)); err == nil {
		t.Fatal("EstimateEnhancedWith must refuse the whole-tuple family")
	}
}

func TestSessionFreqFamilyRun(t *testing.T) {
	cards := []int{3, 5, 4}
	ds := NewZipfCatDataset(30_000, cards, 1.2, 9)
	s, err := New(
		WithMechanism(Laplace()),
		WithBudget(4),
		WithCards(cards),
		WithDims(3, 2),
		WithEnhance(DefaultEnhanceConfig(RegL1)),
		WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != KindFreq {
		t.Fatalf("kind = %q", s.Kind())
	}
	res, err := s.Run(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Naive) != 3+5+4 {
		t.Fatalf("flattened estimate has %d entries", len(res.Naive))
	}
	if res.Enhanced == nil {
		t.Fatal("freq enhancement missing")
	}
	// Re-calibrating the same round under another configuration must not
	// need a second collection.
	guarded := DefaultEnhanceConfig(RegL1)
	guarded.Guarded = true
	alt, err := s.EstimateEnhancedWith(guarded)
	if err != nil {
		t.Fatal(err)
	}
	if len(alt) != 3+5+4 {
		t.Fatalf("rebound enhancement width %d", len(alt))
	}
	freqs, err := s.Freqs(res.Naive)
	if err != nil {
		t.Fatal(err)
	}
	ProjectSimplex(freqs)
	truth := TrueFreqs(ds)
	for j := range truth {
		var sum, mse float64
		for k := range truth[j] {
			sum += freqs[j][k]
			d := freqs[j][k] - truth[j][k]
			mse += d * d
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("dimension %d sums to %v", j, sum)
		}
		if mse/float64(len(truth[j])) > 0.01 {
			t.Fatalf("dimension %d frequency MSE %v", j, mse/float64(len(truth[j])))
		}
	}
}

func TestSessionAllocationRun(t *testing.T) {
	ds := NewUniformDataset(2000, 4, 65)
	alloc, err := OptimalMSEAllocation(1, []float64{1, 1, 8, 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(
		WithMechanism(Laplace()),
		WithBudget(1),
		WithDims(4, 2),
		WithAllocation(alloc),
		WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Naive) != 4 {
		t.Fatalf("estimate width %d", len(res.Naive))
	}
}

func TestSessionRunContextCancellation(t *testing.T) {
	// A population large enough that a full round takes far longer than
	// the cancellation budget.
	ds := NewGaussianDataset(5_000_000, 200, 2)
	s, err := New(WithMechanism(Piecewise()), WithBudget(0.8), WithDims(200, 200))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = s.Run(ctx, ds)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

func TestSessionSnapshotMergeComposesShards(t *testing.T) {
	// Two shard sessions over disjoint halves must merge into the same
	// counts a single full round produces, and the merged estimate must be
	// a sane mean estimate — the composition law distributed collectors
	// rely on.
	const n, d = 4000, 10
	ds := Memoize(NewGaussianDataset(n, d, 21))
	mk := func(seed uint64) *Session {
		s, err := New(WithMechanism(Laplace()), WithBudget(4), WithDims(d, d), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	shardA, shardB, central := mk(1), mk(2), mk(3)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		ds.Row(i, row)
		t2 := Tuple{Values: row}
		var err error
		if i%2 == 0 {
			err = shardA.Observe(t2)
		} else {
			err = shardB.Observe(t2)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := central.Merge(shardA.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := central.Merge(shardB.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for j, c := range central.Counts() {
		if c != n {
			t.Fatalf("dimension %d merged count %d, want %d", j, c, n)
		}
	}
	if mse := MSE(central.Estimate(), ds.TrueMean()); mse > 0.05 {
		t.Fatalf("merged estimate MSE %v", mse)
	}
	// Family mismatches must be rejected.
	other, err := New(WithWholeTuple(), WithBudget(1), WithDims(d, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := central.Merge(other.Snapshot()); err == nil {
		t.Fatal("cross-family merge must fail")
	}
}

// TestSessionConcurrentUse interleaves every Session operation from many
// goroutines; run under -race this is the satellite concurrency check.
func TestSessionConcurrentUse(t *testing.T) {
	const d = 6
	s, err := New(WithMechanism(Laplace()), WithBudget(2), WithDims(d, 2),
		WithEnhance(DefaultEnhanceConfig(RegL2)))
	if err != nil {
		t.Fatal(err)
	}
	peer, err := New(WithMechanism(Laplace()), WithBudget(2), WithDims(d, 2), WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	ds := NewUniformDataset(64, d, 5)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // streaming raw tuples
			defer wg.Done()
			row := make([]float64, d)
			for i := 0; i < 200; i++ {
				ds.Row((g*200+i)%64, row)
				if err := s.Observe(Tuple{Values: row}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
		wg.Add(1)
		go func(g int) { // streaming pre-perturbed reports
			defer wg.Done()
			rng := NewRNG(uint64(1000 + g))
			for i := 0; i < 200; i++ {
				rep := Report{
					Dims:   []uint32{uint32(i % d), uint32(d - 1)},
					Values: []float64{rng.Uniform(-1, 1), rng.Uniform(-1, 1)},
				}
				if rep.Dims[0] == rep.Dims[1] {
					rep = Report{Dims: rep.Dims[:1], Values: rep.Values[:1]}
				}
				if err := s.AddReport(rep); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
		wg.Add(1)
		go func() { // readers
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if got := s.Estimate(); len(got) != d {
					t.Errorf("estimate width %d", len(got))
					return
				}
				if _, err := s.EstimateEnhanced(); err != nil {
					t.Error(err)
					return
				}
				_ = s.Counts()
			}
		}()
		wg.Add(1)
		go func() { // shard composition
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := peer.Merge(s.Snapshot()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, c := range s.Counts() {
		total += c
	}
	if want := int64(4*200*2 + 4*200*2); total != want {
		// Each Observe contributes m=2 reports; each AddReport 2 (or,
		// rarely, 1 when the two dims collide).
		if total < want-4*200 || total > want {
			t.Fatalf("total count %d implausible (want ≈%d)", total, want)
		}
	}
}

func TestSessionRunStreamingInterleave(t *testing.T) {
	// Reports arriving over Observe while a batch Run is in flight must
	// all land: Run merges shard snapshots, it does not overwrite.
	const d = 4
	s, err := New(WithMechanism(Laplace()), WithBudget(2), WithDims(d, d), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ds := NewUniformDataset(5000, d, 31)
	done := make(chan error, 1)
	go func() {
		row := make([]float64, d)
		for i := 0; i < 1000; i++ {
			ds.Row(i%5000, row)
			if err := s.Observe(Tuple{Values: row}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	if _, err := s.Run(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for j, c := range s.Counts() {
		if c != 5000+1000 {
			t.Fatalf("dimension %d count %d, want %d", j, c, 6000)
		}
	}
}

func TestSessionOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"no mechanism", []Option{WithBudget(1), WithDims(4, 4)}},
		{"nil mechanism", []Option{WithMechanism(nil)}},
		{"bad budget", []Option{WithMechanism(Laplace()), WithBudget(-1), WithDims(4, 4)}},
		{"m > d", []Option{WithMechanism(Laplace()), WithBudget(1), WithDims(4, 5)}},
		{"cards and wholetuple", []Option{WithBudget(1), WithCards([]int{2, 2}), WithWholeTuple()}},
		{"allocation and cards", []Option{WithMechanism(Laplace()), WithBudget(1), WithCards([]int{2, 2}), WithAllocation(UniformAllocation(1, 2, 2))}},
		{"allocation and wholetuple", []Option{WithBudget(1), WithDims(2, 0), WithWholeTuple(), WithAllocation(UniformAllocation(1, 2, 2))}},
		{"cards vs dims", []Option{WithMechanism(Laplace()), WithBudget(1), WithCards([]int{2, 2}), WithDims(3, 1)}},
		{"empty cards", []Option{WithMechanism(Laplace()), WithBudget(1), WithCards(nil)}},
	}
	for _, tc := range cases {
		if _, err := New(tc.opts...); err == nil {
			t.Errorf("%s: New succeeded", tc.name)
		}
	}
	// Wrong source family.
	s, err := New(WithMechanism(Laplace()), WithBudget(1), WithCards([]int{2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), NewUniformDataset(10, 2, 1)); err == nil {
		t.Fatal("freq session must reject a numeric Dataset")
	}
	if _, err := s.Freqs(make([]float64, 3)); err == nil {
		t.Fatal("Freqs must validate the flat width")
	}
	m, err := New(WithMechanism(Laplace()), WithBudget(1), WithDims(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), NewUniformCatDataset(10, []int{2}, 1)); err == nil {
		t.Fatal("mean session must reject a CatDataset")
	}
	if _, err := m.Freqs(nil); err == nil {
		t.Fatal("Freqs on a mean session must fail")
	}
}

func TestDefaultSeedNoiseCannotBeReplayed(t *testing.T) {
	// A collector that could rebuild a device's session could regenerate
	// its noise: the report of x minus a fresh default session's report
	// of 0 would give x back. Default sessions must seed unpredictably.
	spec := QuerySpec{Kind: KindMean, Mech: "laplace", Eps: 1, D: 4, M: 4}
	device, err := NewFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := NewFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.9, -0.4, 0.25, -0.8}
	rep, err := device.Report(Tuple{Values: x})
	if err != nil {
		t.Fatal(err)
	}
	noise, err := replay.Report(Tuple{Values: make([]float64, len(x))})
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for i, j := range rep.Dims {
		if math.Abs(rep.Values[i]-noise.Values[i]-x[j]) < 1e-9 {
			recovered++
		}
	}
	if recovered == len(x) {
		t.Fatalf("replaying a default session's noise recovered all %d raw values", len(x))
	}

	// WithSeed stays the reproducible mode: equal seeds, equal noise.
	a, _ := NewFromSpec(spec, WithSeed(7))
	b, _ := NewFromSpec(spec, WithSeed(7))
	ra, _ := a.Report(Tuple{Values: x})
	rb, _ := b.Report(Tuple{Values: x})
	for i := range ra.Values {
		if math.Float64bits(ra.Values[i]) != math.Float64bits(rb.Values[i]) {
			t.Fatalf("WithSeed(7) sessions differ at report value %d", i)
		}
	}
}

// constDataset is n users whose every value is v.
type constDataset struct {
	n, d int
	v    float64
}

func (c constDataset) Name() string  { return "const" }
func (c constDataset) NumUsers() int { return c.n }
func (c constDataset) Dim() int      { return c.d }
func (c constDataset) Row(_ int, dst []float64) {
	for j := range dst {
		dst[j] = c.v
	}
}

func TestMeanFamilyOutOfDomainValueIsAnError(t *testing.T) {
	// An out-of-domain value must come back as an error that names the
	// dimension only: never a panic, and never the private value itself.
	for _, v := range []float64{1.5, math.NaN()} {
		s, err := New(WithMechanism(Piecewise()), WithBudget(1), WithDims(8, 4), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		tuple := Tuple{Values: []float64{v, v, v, v, v, v, v, v}}
		check := func(what string, err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("%s of value %v: no error", what, v)
			}
			if msg := err.Error(); !strings.Contains(msg, "in dimension") || strings.Contains(msg, "1.5") || strings.Contains(msg, "NaN") {
				t.Fatalf("%s of value %v: error %q must name only the dimension", what, v, msg)
			}
		}
		_, err = s.Report(tuple)
		check("Report", err)
		check("Observe", s.Observe(tuple))
		_, err = s.Run(context.Background(), constDataset{n: 40, d: 8, v: v})
		check("Run", err)
	}
}
