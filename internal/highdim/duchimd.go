package highdim

import (
	"fmt"
	"math"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// DuchiMD is the multidimensional mechanism of Duchi et al. [27] — the one
// mechanism the paper notes was "originally designed for [high-dimensional]
// space". Unlike the sampling protocol (m of d dimensions at ε/m each), it
// releases a whole d-dimensional tuple from the hypercube {−B, B}^d in one
// ε-LDP step:
//
//  1. draw v ∈ {−1,1}^d with P[vⱼ = 1] = (1 + tⱼ)/2,
//  2. with probability e^ε/(e^ε+1) release a uniform corner of
//     T⁺ = {s·B : ⟨s, v⟩ ≥ 0}, otherwise of T⁻ = {s·B : ⟨s, v⟩ < 0},
//
// with B = C_d·(e^ε+1)/(e^ε−1) calibrated so the release is unbiased
// (E[t*] = t). C_d depends on the parity of d through central binomial
// coefficients; see constant below.
type DuchiMD struct {
	D   int
	Eps float64
}

// NewDuchiMD validates and returns the mechanism.
func NewDuchiMD(d int, eps float64) (DuchiMD, error) {
	m := DuchiMD{D: d, Eps: eps}
	if d < 1 {
		return m, fmt.Errorf("highdim: duchi-md needs d ≥ 1, have %d", d)
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		return m, fmt.Errorf("highdim: duchi-md budget %v must be finite and positive", eps)
	}
	return m, nil
}

// B returns the output magnitude per dimension.
func (m DuchiMD) B() float64 {
	e := math.Exp(m.Eps)
	return m.cd() * (e + 1) / (e - 1)
}

// cd computes C_d:
//
//	d odd:  2^{d−1} / binom(d−1, (d−1)/2)
//	d even: (2^{d−1} + binom(d, d/2)/2) / binom(d−1, d/2)
//
// evaluated in log space to stay finite for large d.
func (m DuchiMD) cd() float64 {
	d := float64(m.D)
	if m.D%2 == 1 {
		return math.Exp((d-1)*math.Ln2 - logBinom(m.D-1, (m.D-1)/2))
	}
	lb := logBinom(m.D, m.D/2)
	num := math.Exp((d-1)*math.Ln2) + 0.5*math.Exp(lb)
	// For large even d compute the ratio in log space via log-sum-exp.
	if math.IsInf(num, 1) {
		a := (d - 1) * math.Ln2
		b := lb - math.Ln2
		hi := math.Max(a, b)
		logNum := hi + math.Log(math.Exp(a-hi)+math.Exp(b-hi))
		return math.Exp(logNum - logBinom(m.D-1, m.D/2))
	}
	return num / math.Exp(logBinom(m.D-1, m.D/2))
}

// logBinom returns log C(n, k) via lgamma.
func logBinom(n, k int) float64 {
	ln, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln - lk - lnk
}

// PerturbTuple releases the ε-LDP randomization of tuple (length D, values
// in [−1, 1]). The corner sampling uses rejection from the uniform
// hypercube, which accepts with probability ≈ 1/2.
func (m DuchiMD) PerturbTuple(rng *mathx.RNG, tuple []float64) []float64 {
	if len(tuple) != m.D {
		panic(fmt.Sprintf("highdim: duchi-md tuple has %d dims, want %d", len(tuple), m.D))
	}
	v := make([]int8, m.D)
	for j, t := range tuple {
		if t < -1 || t > 1 || math.IsNaN(t) {
			panic(fmt.Sprintf("highdim: duchi-md value %v outside [-1,1]", t))
		}
		if rng.Bernoulli((1 + t) / 2) {
			v[j] = 1
		} else {
			v[j] = -1
		}
	}
	e := math.Exp(m.Eps)
	wantPlus := rng.Bernoulli(e / (e + 1))
	b := m.B()
	out := make([]float64, m.D)
	s := make([]int8, m.D)
	for {
		dot := 0
		for j := range s {
			if rng.Bernoulli(0.5) {
				s[j] = 1
			} else {
				s[j] = -1
			}
			dot += int(s[j]) * int(v[j])
		}
		inPlus := dot >= 0
		if inPlus == wantPlus {
			break
		}
	}
	for j := range out {
		out[j] = float64(s[j]) * b
	}
	return out
}

// VarPerDim returns Var[t*ⱼ | tⱼ] = B² − tⱼ² (outputs are ±B and unbiased).
func (m DuchiMD) VarPerDim(t float64) float64 {
	b := m.B()
	return b*b - t*t
}
