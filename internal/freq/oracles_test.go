package freq

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// This file implements the two classic frequency oracles of Wang et al.
// [37] — Generalized Randomized Response (GRR) and Optimized Unary Encoding
// (OUE) — as comparison baselines for the paper's histogram-encoding
// pipeline. Both perturb a whole categorical value with the full
// per-dimension budget ε/m (instead of ε/(2m) per encoded entry), and both
// come with unbiased estimators and closed-form variances, so the §IV
// framework's style of analysis applies to them too.

// Oracle is a per-dimension categorical frequency oracle.
type Oracle interface {
	// Name identifies the oracle.
	Name() string
	// Perturb randomizes category v ∈ [0, card) under budget eps.
	// The output is an opaque report consumed by Support.
	Perturb(rng *mathx.RNG, v, card int, eps float64) []int
	// Support reports whether category k is "supported" by the perturbed
	// report (the estimator counts supports).
	Support(report []int, k int) bool
	// PQ returns the estimator constants: p = P[true value supported],
	// q = P[other value supported].
	PQ(card int, eps float64) (p, q float64)
	// Var returns the exact per-user estimator variance for a frequency f
	// under budget eps: with support probability P = f·p + (1−f)·q, the
	// indicator estimator (x − q)/(p − q) has variance P(1−P)/(p−q)².
	Var(f float64, card int, eps float64) float64
}

// GRR is generalized randomized response (k-RR): report the true category
// with probability e^ε/(e^ε+k−1), otherwise a uniformly random other one.
type GRR struct{}

// Name implements Oracle.
func (GRR) Name() string { return "GRR" }

// PQ implements Oracle.
func (GRR) PQ(card int, eps float64) (p, q float64) {
	e := math.Exp(eps)
	k := float64(card)
	return e / (e + k - 1), 1 / (e + k - 1)
}

// Perturb implements Oracle; the report is the single reported category.
func (g GRR) Perturb(rng *mathx.RNG, v, card int, eps float64) []int {
	p, _ := g.PQ(card, eps)
	if rng.Bernoulli(p) {
		return []int{v}
	}
	// Uniform over the other card−1 categories.
	o := rng.IntN(card - 1)
	if o >= v {
		o++
	}
	return []int{o}
}

// Support implements Oracle.
func (GRR) Support(report []int, k int) bool { return report[0] == k }

// Var implements Oracle.
func (g GRR) Var(f float64, card int, eps float64) float64 {
	p, q := g.PQ(card, eps)
	return oracleVar(f, p, q)
}

// oracleVar is the exact indicator-estimator variance shared by GRR and
// OUE (Wang et al.'s published forms drop the f(1−f)(p−q)² between-group
// term, which matters for non-small f).
func oracleVar(f, p, q float64) float64 {
	bigP := f*p + (1-f)*q
	return bigP * (1 - bigP) / ((p - q) * (p - q))
}

// OUE is optimized unary encoding: one-hot encode, keep the 1-bit with
// probability 1/2, flip each 0-bit to 1 with probability 1/(e^ε+1). Its
// estimator variance 4e^ε/(e^ε−1)² is independent of the cardinality — the
// reason it wins for large domains.
type OUE struct{}

// Name implements Oracle.
func (OUE) Name() string { return "OUE" }

// PQ implements Oracle.
func (OUE) PQ(card int, eps float64) (p, q float64) {
	return 0.5, 1 / (math.Exp(eps) + 1)
}

// Perturb implements Oracle; the report is the bit vector (one int per
// category, 0 or 1).
func (o OUE) Perturb(rng *mathx.RNG, v, card int, eps float64) []int {
	p, q := o.PQ(card, eps)
	bits := make([]int, card)
	for k := 0; k < card; k++ {
		keep := q
		if k == v {
			keep = p
		}
		if rng.Bernoulli(keep) {
			bits[k] = 1
		}
	}
	return bits
}

// Support implements Oracle.
func (OUE) Support(report []int, k int) bool { return report[k] == 1 }

// Var implements Oracle; for small f the dominant term is the optimized
// 4e^ε/(e^ε−1)², independent of the cardinality.
func (o OUE) Var(f float64, card int, eps float64) float64 {
	p, q := o.PQ(card, eps)
	return oracleVar(f, p, q)
}

// OracleAggregator collects oracle reports and produces unbiased frequency
// estimates per dimension.
type OracleAggregator struct {
	P      Protocol
	Oracle Oracle

	mu       sync.Mutex
	supports [][]int64
	counts   []int64
}

// NewOracleAggregator returns an empty oracle collector for p.
func NewOracleAggregator(p Protocol, o Oracle) *OracleAggregator {
	a := &OracleAggregator{P: p, Oracle: o, counts: make([]int64, len(p.Cards))}
	a.supports = make([][]int64, len(p.Cards))
	for j, v := range p.Cards {
		a.supports[j] = make([]int64, v)
	}
	return a
}

// Estimate returns the unbiased frequency estimates f̂ₖ = (p̂ₖ − q)/(p − q).
func (a *OracleAggregator) Estimate() [][]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	epsPer := a.P.Eps / float64(a.P.M)
	out := make([][]float64, len(a.supports))
	for j := range a.supports {
		out[j] = make([]float64, len(a.supports[j]))
		r := float64(a.counts[j])
		if r == 0 {
			continue
		}
		p, q := a.Oracle.PQ(a.P.Cards[j], epsPer)
		for k := range a.supports[j] {
			out[j][k] = (float64(a.supports[j][k])/r - q) / (p - q)
		}
	}
	return out
}

// SimulateOracle runs one frequency-collection round with a classic oracle:
// each user samples m dimensions and perturbs each sampled categorical
// value with ε/m.
func SimulateOracle(p Protocol, o Oracle, ds CatDataset, rng *mathx.RNG, workers int) (*OracleAggregator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cards := ds.Cards()
	if len(cards) != len(p.Cards) {
		return nil, fmt.Errorf("freq: dataset has %d dims, protocol says %d", len(cards), len(p.Cards))
	}
	if workers <= 0 {
		workers = 8
	}
	n := ds.NumUsers()
	if workers > n {
		workers = n
	}
	agg := NewOracleAggregator(p, o)
	d := len(p.Cards)
	epsPer := p.Eps / float64(p.M)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rng.Child(uint64(w))
			supports := make([][]int64, d)
			for j, v := range p.Cards {
				supports[j] = make([]int64, v)
			}
			counts := make([]int64, d)
			var dims []int
			for i := w; i < n; i += workers {
				dims = wrng.SampleIndices(d, p.M, dims)
				for _, j := range dims {
					rep := o.Perturb(wrng, ds.Value(i, j), p.Cards[j], epsPer)
					for k := 0; k < p.Cards[j]; k++ {
						if o.Support(rep, k) {
							supports[j][k]++
						}
					}
					counts[j]++
				}
			}
			agg.mu.Lock()
			for j := range supports {
				for k := range supports[j] {
					agg.supports[j][k] += supports[j][k]
				}
				agg.counts[j] += counts[j]
			}
			agg.mu.Unlock()
		}(w)
	}
	wg.Wait()
	return agg, nil
}

func TestGRRProbabilitiesSatisfyLDP(t *testing.T) {
	// The defining k-RR property: p/q = e^ε exactly.
	g := GRR{}
	for _, card := range []int{2, 5, 32} {
		for _, eps := range []float64{0.5, 1, 4} {
			p, q := g.PQ(card, eps)
			if math.Abs(p/q-math.Exp(eps)) > 1e-12 {
				t.Errorf("card=%d ε=%v: p/q = %v", card, eps, p/q)
			}
			if math.Abs(p+float64(card-1)*q-1) > 1e-12 {
				t.Errorf("card=%d ε=%v: probabilities don't normalize", card, eps)
			}
		}
	}
}

func TestOUEBitFlipLDP(t *testing.T) {
	// OUE's privacy: the worst-case likelihood ratio across the two bits a
	// value change touches is (p(1−q))/(q(1−p)) = e^ε with p=1/2,
	// q=1/(e^ε+1).
	o := OUE{}
	for _, eps := range []float64{0.5, 1, 4} {
		p, q := o.PQ(8, eps)
		ratio := (p * (1 - q)) / (q * (1 - p))
		if math.Abs(ratio-math.Exp(eps)) > 1e-9 {
			t.Errorf("ε=%v: OUE ratio %v, want e^ε", eps, ratio)
		}
	}
}

func TestOraclePerturbFrequencies(t *testing.T) {
	// Empirical support frequencies must match p (true bit) and q (others).
	rng := mathx.NewRNG(1)
	const trials = 120_000
	for _, o := range []Oracle{GRR{}, OUE{}} {
		const card, eps = 6, 1.2
		p, q := o.PQ(card, eps)
		var selfHits, otherHits int
		for i := 0; i < trials; i++ {
			rep := o.Perturb(rng, 2, card, eps)
			if o.Support(rep, 2) {
				selfHits++
			}
			if o.Support(rep, 4) {
				otherHits++
			}
		}
		if got := float64(selfHits) / trials; math.Abs(got-p) > 0.01 {
			t.Errorf("%s: self support %v, want %v", o.Name(), got, p)
		}
		if got := float64(otherHits) / trials; math.Abs(got-q) > 0.01 {
			t.Errorf("%s: other support %v, want %v", o.Name(), got, q)
		}
	}
}

func TestOracleEstimatesUnbiased(t *testing.T) {
	ds := NewZipfCat(40_000, []int{5, 7}, 1.0, 3)
	truth := TrueFreqs(ds)
	for _, o := range []Oracle{GRR{}, OUE{}} {
		p := Protocol{Mech: nil, Eps: 4, Cards: ds.Cards(), M: 1}
		// Oracle path doesn't use Mech; satisfy validation with a stub.
		p.Mech = stubMech{}
		agg, err := SimulateOracle(p, o, ds, mathx.NewRNG(5), 4)
		if err != nil {
			t.Fatal(err)
		}
		est := agg.Estimate()
		if mse := freqMSE(est, truth); mse > 2e-3 {
			t.Errorf("%s: MSE = %v", o.Name(), mse)
		}
	}
}

func TestOracleVarianceFormulas(t *testing.T) {
	// Empirical estimator variance must match the closed forms.
	const card, eps = 8, 1.0
	const n = 40_000
	for _, o := range []Oracle{GRR{}, OUE{}} {
		p, q := o.PQ(card, eps)
		f := 0.3
		rng := mathx.NewRNG(9)
		var w mathx.Welford
		for i := 0; i < n; i++ {
			v := 0
			if !rng.Bernoulli(f) {
				v = 1 + rng.IntN(card-1)
			}
			rep := o.Perturb(rng, v, card, eps)
			x := 0.0
			if o.Support(rep, 0) {
				x = 1
			}
			w.Add((x - q) / (p - q))
		}
		want := o.Var(f, card, eps)
		if math.Abs(w.Var()-want)/want > 0.05 {
			t.Errorf("%s: empirical var %v, formula %v", o.Name(), w.Var(), want)
		}
		if math.Abs(w.Mean()-f) > 0.02 {
			t.Errorf("%s: estimator biased: %v", o.Name(), w.Mean())
		}
	}
}

func TestOUEWinsForLargeDomains(t *testing.T) {
	// Wang et al.'s guidance: GRR degrades with cardinality, OUE does not.
	g, o := GRR{}, OUE{}
	eps := 1.0
	if g.Var(0.1, 4, eps) > o.Var(0.1, 4, eps) {
		t.Log("GRR already loses at card=4 for ε=1 (expected for small ε)")
	}
	if g.Var(0.1, 64, eps) <= o.Var(0.1, 64, eps) {
		t.Errorf("at card=64 OUE must win: GRR %v vs OUE %v",
			g.Var(0.1, 64, eps), o.Var(0.1, 64, eps))
	}
	// OUE variance is cardinality-independent.
	if math.Abs(o.Var(0.1, 4, eps)-o.Var(0.1, 64, eps)) > 1e-12 {
		t.Error("OUE variance should not depend on cardinality")
	}
}

// stubMech satisfies Protocol.Validate for oracle-only runs.
type stubMech struct{}

func (stubMech) Name() string                                 { return "stub" }
func (stubMech) Bounded() bool                                { return true }
func (stubMech) Perturb(*mathx.RNG, float64, float64) float64 { panic("stub") }
func (stubMech) SupportBound(float64) float64                 { return 1 }
func (stubMech) Bias(float64, float64) float64                { return 0 }
func (stubMech) Var(float64, float64) float64                 { return 0 }
func (stubMech) ThirdAbsMoment(float64, float64) float64      { return 0 }
