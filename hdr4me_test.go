package hdr4me

import (
	"context"
	"math"
	"sync"
	"testing"
)

func TestFacadeEndToEndMeanEstimation(t *testing.T) {
	// The doc.go quickstart as a test, enhanced with the data-informed
	// framework instead of WithEnhance's uninformative prior.
	ds := Memoize(NewGaussianDataset(20_000, 50, 1))
	sess, err := New(WithMechanism(Piecewise()), WithBudget(0.8), WithDims(50, 50), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	naive := res.Naive
	p, err := NewProtocol(Piecewise(), 0.8, 50, 50)
	if err != nil {
		t.Fatal(err)
	}
	enhanced, err := EnhanceWithFramework(p, ds, naive, DefaultEnhanceConfig(RegL1))
	if err != nil {
		t.Fatal(err)
	}
	truth := ds.TrueMean()
	nm, em := MSE(naive, truth), MSE(enhanced, truth)
	if em >= nm {
		t.Fatalf("HDR4ME did not improve: naive %v, enhanced %v", nm, em)
	}
	// Eq. 2/3 identity through the facade.
	l2 := L2Deviation(naive, truth)
	if math.Abs(nm-l2*l2/50)/nm > 1e-9 {
		t.Fatalf("MSE/L2 identity broken: %v vs %v", nm, l2*l2/50)
	}
}

func TestFacadeMechanismRegistry(t *testing.T) {
	names := []string{"laplace", "piecewise", "squarewave", "duchi", "hybrid", "staircase", "scdf"}
	for _, n := range names {
		m, err := MechanismByName(n)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		x := m.Perturb(NewRNG(1), 0.3, 1)
		if math.IsNaN(x) {
			t.Errorf("%s produced NaN", n)
		}
	}
	if len(EvaluatedMechanisms()) != 3 {
		t.Error("EvaluatedMechanisms should return 3")
	}
	ctors := []func() Mechanism{Laplace, Piecewise, SquareWave, Duchi, Hybrid, Staircase, SCDF}
	for _, c := range ctors {
		if c() == nil {
			t.Error("nil mechanism from constructor")
		}
	}
}

func TestFacadeFrameworkAndTableII(t *testing.T) {
	fw := NewFramework(Laplace(), 0.01, 10_000)
	dev := fw.Deviation(nil)
	if dev.Sigma2 <= 0 {
		t.Fatal("bad deviation")
	}
	j := Homogeneous(100, dev)
	if lb := j.Theorem3LowerBound(); lb <= 0.99 {
		t.Errorf("Theorem 3 bound %v in a heavy-noise regime", lb)
	}
	rows := CaseStudyTableII()
	if len(rows) != 4 || rows[0].Winner != "Piecewise" || rows[3].Winner != "Square" {
		t.Fatalf("Table II = %+v", rows)
	}
	if BerryEsseen(3, 1, 0) != math.Inf(1) {
		t.Error("BerryEsseen degenerate case")
	}
}

func TestFacadeSpecsAndEnhance(t *testing.T) {
	spec := SpecFromSamples([]float64{0.1, 0.2, 0.3, 0.4}, 2)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	spec2 := SpecFromCounts([]float64{0.5, 0.5, -0.5})
	if len(spec2.Values) != 2 {
		t.Fatalf("counts spec = %+v", spec2)
	}
	out := Enhance([]float64{5, -5}, []Deviation{{Delta: 0, Sigma2: 1}}, DefaultEnhanceConfig(RegL1))
	if out[0] >= 5 || out[1] <= -5 {
		t.Fatalf("enhance did nothing: %v", out)
	}
	if RegNone.String() != "none" || RegL1.String() != "L1" || RegL2.String() != "L2" {
		t.Error("Reg strings")
	}
}

func TestFacadeEnhanceWithFrameworkValidates(t *testing.T) {
	ds := NewUniformDataset(100, 5, 1)
	bad := Protocol{Mech: Laplace(), Eps: -1, D: 5, M: 5}
	if _, err := EnhanceWithFramework(bad, ds, make([]float64, 5), DefaultEnhanceConfig(RegL1)); err == nil {
		t.Fatal("invalid protocol must error")
	}
}

func TestFacadeNetworkedCollection(t *testing.T) {
	p, err := NewProtocol(Laplace(), 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCollectorServer(NewAggregator(p))
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ds := NewUniformDataset(500, 4, 3)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := DialCollector(addr.String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			client := NewClient(p, NewRNG(50).Child(uint64(c)))
			row := make([]float64, 4)
			for i := c; i < 500; i += 4 {
				ds.Row(i, row)
				if err := cl.Send(client.Report(row)); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	cl, err := DialCollector(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	est, err := cl.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != 4 {
		t.Fatalf("estimate dims = %d", len(est))
	}
}

func TestFacadeTrueMean(t *testing.T) {
	ds := NewUniformDataset(5000, 3, 9)
	mean := TrueMean(ds)
	for _, m := range mean {
		if math.Abs(m) > 0.05 {
			t.Fatalf("uniform mean %v", m)
		}
	}
}
