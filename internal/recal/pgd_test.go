package recal

import (
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// The paper derives the Eq. 34/42 solvers from proximal gradient descent
// on the aggregation loss (Eqs. 25–30). That route is kept here as the
// verifier of the closed forms.

// Prox is a proximal operator: given the gradient-step point v and the step
// size, it returns argmin_θ { (1/2)‖θ − v‖² + step·R(θ) } for its
// regularizer R.
type Prox func(v []float64, step float64) []float64

// ProxL1 returns the proximal operator of R(θ) = ‖λ∘θ‖₁: per-dimension
// soft-thresholding by step·λⱼ.
func ProxL1(lambda []float64) Prox {
	return func(v []float64, step float64) []float64 {
		scaled := make([]float64, len(lambda))
		for j, l := range lambda {
			scaled[j] = step * l
		}
		return SoftThreshold(v, scaled)
	}
}

// ProxL2Squared returns the proximal operator of R(θ) = ‖λ∘θ‖²₂:
// θⱼ = vⱼ/(1 + 2·step·λⱼ²)... Following the paper's Eq. 36, the penalty is
// |λⱼθⱼ|² so the prox is vⱼ/(1 + 2·step·λⱼ). (The paper treats λⱼ as the
// already-squared weight; we keep its convention so Eq. 42 falls out at
// step 1.)
func ProxL2Squared(lambda []float64) Prox {
	return func(v []float64, step float64) []float64 {
		out := make([]float64, len(v))
		for j, x := range v {
			if math.IsInf(lambda[j], 1) {
				out[j] = 0
				continue
			}
			out[j] = x / (1 + 2*step*lambda[j])
		}
		return out
	}
}

// ProxElasticNet composes both penalties: soft-threshold by step·l1 then
// shrink by step·l2 — an extension point beyond the paper.
func ProxElasticNet(l1, l2 []float64) Prox {
	pl1, pl2 := ProxL1(l1), ProxL2Squared(l2)
	return func(v []float64, step float64) []float64 {
		return pl2(pl1(v, step), step)
	}
}

// ProxBox projects onto the box [lo, hi]^d — useful when the enhanced mean
// must stay in the data domain.
func ProxBox(lo, hi float64) Prox {
	return func(v []float64, step float64) []float64 {
		out := make([]float64, len(v))
		for j, x := range v {
			out[j] = mathx.Clamp(x, lo, hi)
		}
		return out
	}
}

// PGDResult reports the outcome of a proximal-gradient-descent run.
type PGDResult struct {
	Theta []float64
	Iters int
	// Converged is true if the iterate moved less than tol in L∞ before
	// the iteration limit.
	Converged bool
}

// PGD minimizes L(θ) + R(θ) by proximal gradient descent:
// θ_{k+1} = prox_{step·R}(θ_k − step·∇L(θ_k)). This is the paper's
// derivation route (Eqs. 25–30); for the aggregation loss (∇L(θ) = θ − θ̂,
// Lipschitz constant 1) a unit step converges in a single iteration to the
// closed-form solvers, which TestPGDMatchesClosedFormL1 verifies.
func PGD(grad func(theta []float64) []float64, prox Prox, init []float64, step float64, maxIters int, tol float64) PGDResult {
	theta := mathx.Clone(init)
	if step <= 0 {
		step = 1
	}
	if maxIters < 1 {
		maxIters = 1
	}
	for k := 1; k <= maxIters; k++ {
		g := grad(theta)
		v := make([]float64, len(theta))
		for j := range v {
			v[j] = theta[j] - step*g[j]
		}
		next := prox(v, step)
		moved := 0.0
		for j := range next {
			if d := math.Abs(next[j] - theta[j]); d > moved {
				moved = d
			}
		}
		theta = next
		if moved <= tol {
			return PGDResult{Theta: theta, Iters: k, Converged: true}
		}
	}
	return PGDResult{Theta: theta, Iters: maxIters}
}

// AggregationGrad returns ∇L for the paper's aggregation loss
// L(θ) = (1/2r)Σᵢ‖t*ᵢ − θ‖²₂, which is simply θ − θ̂ (Eq. 25).
func AggregationGrad(naive []float64) func([]float64) []float64 {
	return func(theta []float64) []float64 {
		g := make([]float64, len(theta))
		for j := range g {
			g[j] = theta[j] - naive[j]
		}
		return g
	}
}

func BenchmarkAblation_PGDvsClosedForm(b *testing.B) {
	// The paper's PGD derivation vs the Eq. 34 one-off solver: identical
	// fixed point, very different cost.
	const d = 10_000
	naive := make([]float64, d)
	lambda := make([]float64, d)
	rng := mathx.NewRNG(1)
	for j := range naive {
		naive[j] = rng.Uniform(-5, 5)
		lambda[j] = rng.Uniform(0, 2)
	}
	b.Run("ClosedForm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SoftThreshold(naive, lambda)
		}
	})
	b.Run("PGD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PGD(AggregationGrad(naive), ProxL1(lambda), make([]float64, d), 1, 50, 1e-12)
		}
	})
}

func TestPGDMatchesClosedFormL1(t *testing.T) {
	// The paper's derivation: PGD on the aggregation loss with the L1 prox
	// reaches the Eq. 34 soft-threshold solution (one-off at unit step).
	naive := []float64{3, -0.4, 1.5, -6}
	lambda := []float64{1, 1, 2, 2}
	res := PGD(AggregationGrad(naive), ProxL1(lambda), make([]float64, 4), 1, 50, 1e-12)
	want := SoftThreshold(naive, lambda)
	if !res.Converged {
		t.Fatal("PGD did not converge")
	}
	for j := range want {
		if math.Abs(res.Theta[j]-want[j]) > 1e-10 {
			t.Fatalf("PGD %v, closed form %v", res.Theta, want)
		}
	}
}

func TestPGDMatchesClosedFormL2(t *testing.T) {
	naive := []float64{3, -0.4, 1.5}
	lambda := []float64{0.5, 1, 4}
	res := PGD(AggregationGrad(naive), ProxL2Squared(lambda), make([]float64, 3), 1, 200, 1e-14)
	want := Shrink(naive, lambda)
	for j := range want {
		if math.Abs(res.Theta[j]-want[j]) > 1e-9 {
			t.Fatalf("PGD %v, closed form %v", res.Theta, want)
		}
	}
}

func TestPGDSmallStepStillConverges(t *testing.T) {
	naive := []float64{2, -2}
	lambda := []float64{0.5, 0.5}
	res := PGD(AggregationGrad(naive), ProxL1(lambda), make([]float64, 2), 0.3, 500, 1e-12)
	want := SoftThreshold(naive, lambda)
	if !res.Converged {
		t.Fatal("did not converge with small step")
	}
	for j := range want {
		if math.Abs(res.Theta[j]-want[j]) > 1e-8 {
			t.Fatalf("PGD %v, want %v", res.Theta, want)
		}
	}
}

func TestPGDIterationLimit(t *testing.T) {
	res := PGD(AggregationGrad([]float64{1}), ProxL1([]float64{0}), []float64{100}, 0.01, 3, 0)
	if res.Converged || res.Iters != 3 {
		t.Fatalf("res = %+v, want 3 iters unconverged", res)
	}
}

func TestPGDDefensiveDefaults(t *testing.T) {
	// Non-positive step and iteration count fall back to sane values.
	res := PGD(AggregationGrad([]float64{5}), ProxL1([]float64{1}), []float64{0}, -1, 0, 1e-12)
	if len(res.Theta) != 1 {
		t.Fatal("bad result")
	}
	if math.Abs(res.Theta[0]-4) > 1e-9 {
		t.Fatalf("theta = %v, want 4", res.Theta[0])
	}
}

func TestProxElasticNet(t *testing.T) {
	p := ProxElasticNet([]float64{1}, []float64{0.5})
	got := p([]float64{5}, 1)[0]
	// soft(5,1)=4 then 4/(1+1)=2.
	if got != 2 {
		t.Fatalf("elastic net prox = %v, want 2", got)
	}
}

func TestProxBox(t *testing.T) {
	p := ProxBox(-1, 1)
	got := p([]float64{-3, 0.2, 7}, 1)
	if got[0] != -1 || got[1] != 0.2 || got[2] != 1 {
		t.Fatalf("box prox = %v", got)
	}
}

func TestProxL2InfinityZeroes(t *testing.T) {
	p := ProxL2Squared([]float64{math.Inf(1)})
	if got := p([]float64{9}, 1)[0]; got != 0 {
		t.Fatalf("got %v, want 0", got)
	}
}

func TestPGDWithBoxProjection(t *testing.T) {
	// Constrained aggregation: the minimizer of ‖θ−θ̂‖² over the box is the
	// clamped naive estimate.
	naive := []float64{4, -0.5}
	res := PGD(AggregationGrad(naive), ProxBox(-1, 1), make([]float64, 2), 1, 100, 1e-12)
	if math.Abs(res.Theta[0]-1) > 1e-10 || math.Abs(res.Theta[1]+0.5) > 1e-10 {
		t.Fatalf("theta = %v, want [1 -0.5]", res.Theta)
	}
}
