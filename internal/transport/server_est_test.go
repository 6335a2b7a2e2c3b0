package transport

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/freq"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/recal"
)

// TestServerServesFrequencyEstimator drives the §V-C frequency family
// through the same TCP server the mean family uses: vector reports in,
// naive and HDR4ME-enhanced flattened frequencies out.
func TestServerServesFrequencyEstimator(t *testing.T) {
	cards := []int{3, 4}
	f, err := freq.NewFlat(freq.Protocol{Mech: ldp.Laplace{}, Eps: 4, Cards: cards, M: 2},
		recal.DefaultConfig(recal.RegL1))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(f)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Each connection perturbs user-side — sample m=2 dims, histogram-
	// encode, perturb every entry at ε/(2m) — and ships the vector report.
	ds := freq.NewZipfCat(4000, cards, 1.1, 3)
	const conns = 4
	epsEntry := 4.0 / (2 * 2)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr.String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			rng := mathx.NewRNG(50).Child(uint64(c))
			for i := c; i < ds.NumUsers(); i += conns {
				rep := est.Report{Dims: rng.SampleIndices(len(cards), 2, nil)}
				for _, j := range rep.Dims {
					cat := ds.Value(i, int(j))
					for k := 0; k < cards[j]; k++ {
						e := -1.0
						if k == cat {
							e = 1.0
						}
						rep.Values = append(rep.Values, ldp.Laplace{}.Perturb(rng, e, epsEntry))
					}
				}
				if err := cl.Send(rep); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	cl, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	flat, err := cl.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) != 7 {
		t.Fatalf("flattened estimate has %d entries", len(flat))
	}
	truth := freq.TrueFreqs(ds)
	off := 0
	for j := range truth {
		for k := range truth[j] {
			if math.Abs(flat[off+k]-truth[j][k]) > 0.15 {
				t.Fatalf("freq[%d][%d] = %v, true %v", j, k, flat[off+k], truth[j][k])
			}
		}
		off += cards[j]
	}
	enhanced, err := cl.Enhanced()
	if err != nil {
		t.Fatal(err)
	}
	if len(enhanced) != 7 {
		t.Fatalf("enhanced estimate has %d entries", len(enhanced))
	}
	counts, err := cl.Counts()
	if err != nil {
		t.Fatal(err)
	}
	if counts[0]+counts[1] != 2*int64(ds.NumUsers()) {
		t.Fatalf("counts %v", counts)
	}
}

// TestServerServesWholeTupleEstimator checks the 0x05 vector-report path
// end to end for reports with no sampled dims.
func TestServerServesWholeTupleEstimator(t *testing.T) {
	md, err := highdim.NewDuchiMD(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := highdim.NewMDAggregator(md)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(agg)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := mathx.NewRNG(9)
	tuple := []float64{0.5, -0.5, 0, 0.25}
	for i := 0; i < 200; i++ {
		if err := cl.Send(est.Report{Values: md.PerturbTuple(rng, tuple)}); err != nil {
			t.Fatal(err)
		}
	}
	counts, err := cl.Counts()
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 200 {
		t.Fatalf("server saw %d tuples", counts[0])
	}
	if _, err := cl.Estimate(); err != nil {
		t.Fatal(err)
	}
	// The whole-tuple estimator has no enhancement path: the server must
	// answer with an error status, not a hang or disconnect.
	if _, err := cl.Enhanced(); err == nil {
		t.Fatal("enhanced frame must be refused")
	}
	// Connection stays usable after the refusal.
	if _, err := cl.Counts(); err != nil {
		t.Fatalf("connection unusable after refused frame: %v", err)
	}
	// Malformed vector report (wrong width) is NACKed, connection lives.
	if err := cl.Send(est.Report{Values: []float64{1}}); err == nil {
		t.Fatal("short tuple report must be rejected")
	}
	if _, err := cl.Counts(); err != nil {
		t.Fatalf("connection unusable after rejected report: %v", err)
	}
}

// TestServerNilContext: a nil ctx must behave like context.Background(),
// not panic.
func TestServerNilContext(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(highdim.NewAggregator(p))
	srv.Logf = func(string, ...any) {}
	var nilCtx context.Context
	if _, err := srv.ListenContext(nilCtx, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerContextCancellation: cancelling the listen context must close
// the listener and every open connection.
func TestServerContextCancellation(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(highdim.NewAggregator(p))
	srv.Logf = func(string, ...any) {}
	ctx, cancel := context.WithCancel(context.Background())
	addr, err := srv.ListenContext(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Send(est.Report{Dims: []uint32{1}, Values: []float64{0.5}}); err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := cl.Estimate(); err != nil {
			// Connection was torn down by the cancellation: done.
			srv.Close() // idempotent; must not deadlock
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("open connection survived context cancellation")
}

// TestServerEnhancedMidIngest queries the HDR4ME-enhanced estimate while
// reports are still streaming in — the collector must serve a consistent
// vector, not crash or block ingestion.
func TestServerEnhancedMidIngest(t *testing.T) {
	cards := []int{4}
	f, err := freq.NewFlat(freq.Protocol{Mech: ldp.Laplace{}, Eps: 2, Cards: cards, M: 1},
		recal.DefaultConfig(recal.RegL1))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(f)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		cl, err := Dial(addr.String())
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		rng := mathx.NewRNG(4)
		for i := 0; i < 300; i++ {
			rep := est.Report{Dims: []uint32{0}, Values: make([]float64, 4)}
			for k := range rep.Values {
				e := -1.0
				if k == i%4 {
					e = 1.0
				}
				rep.Values[k] = ldp.Laplace{}.Perturb(rng, e, 1)
			}
			if err := cl.Send(rep); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	cl, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 50; i++ {
		enh, err := cl.Enhanced()
		if err != nil {
			t.Fatal(err)
		}
		if len(enh) != 4 {
			t.Fatalf("enhanced width %d", len(enh))
		}
	}
	<-done
}

// heldEstimator is a custom estimator without the Into forms whose
// Estimate, Counts and Enhanced return slices it keeps holding.
type heldEstimator struct {
	est      []float64
	counts   []int64
	enhanced []float64
}

func (e *heldEstimator) Kind() string                        { return "held-test" }
func (e *heldEstimator) Dims() int                           { return len(e.est) }
func (e *heldEstimator) Observe(est.Tuple, *mathx.RNG) error { return nil }
func (e *heldEstimator) AddReport(est.Report) error          { return nil }
func (e *heldEstimator) Estimate() []float64                 { return e.est }
func (e *heldEstimator) Counts() []int64                     { return e.counts }
func (e *heldEstimator) Enhanced() ([]float64, error)        { return e.enhanced, nil }
func (e *heldEstimator) Snapshot() est.Snapshot              { return est.Snapshot{Kind: e.Kind(), Dims: e.Dims()} }
func (e *heldEstimator) Merge(est.Snapshot) error            { return nil }

// TestServerFallsBackForEstimatorsWithoutInto serves a custom estimator
// that has no Into forms and returns slices it still holds: the
// collector answers with its vectors and copies them into its pooled
// reply vectors rather than pooling the estimator's own, so replies for
// another query, which reuse the pool, leave the custom estimator's
// slices untouched.
func TestServerFallsBackForEstimatorsWithoutInto(t *testing.T) {
	held := &heldEstimator{est: []float64{0.25, -0.5, 1}, counts: []int64{3, 4, 5}, enhanced: []float64{0.125, 0, 0.75}}
	reg := est.NewRegistry(nil, nil)
	if _, err := reg.Attach(est.QuerySpec{Name: "held"}, held); err != nil {
		t.Fatal(err)
	}
	other, err := freq.NewFlat(freq.Protocol{Mech: ldp.Laplace{}, Eps: 1, Cards: []int{2}, M: 1}, recal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Attach(est.QuerySpec{Name: "other"}, other); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(listenRegistry(t, reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	hq, oq := cl.Query("held"), cl.Query("other")
	for round := 0; round < 4; round++ {
		got, err := hq.Estimate()
		if err != nil || !sameVec(got, []float64{0.25, -0.5, 1}) {
			t.Fatalf("round %d: estimate %v, %v", round, got, err)
		}
		counts, err := hq.Counts()
		if err != nil || len(counts) != 3 || counts[0] != 3 || counts[1] != 4 || counts[2] != 5 {
			t.Fatalf("round %d: counts %v, %v", round, counts, err)
		}
		if got, err = hq.Enhanced(); err != nil || !sameVec(got, []float64{0.125, 0, 0.75}) {
			t.Fatalf("round %d: enhanced %v, %v", round, got, err)
		}
		// Replies for the other query refill the pooled vectors.
		if _, err := oq.Estimate(); err != nil {
			t.Fatal(err)
		}
		if _, err := oq.Counts(); err != nil {
			t.Fatal(err)
		}
		if _, err := oq.Enhanced(); err != nil {
			t.Fatal(err)
		}
		if !sameVec(held.est, []float64{0.25, -0.5, 1}) || held.counts[0] != 3 || !sameVec(held.enhanced, []float64{0.125, 0, 0.75}) {
			t.Fatalf("round %d: a reply wrote into the custom estimator's own slices: %v %v %v", round, held.est, held.counts, held.enhanced)
		}
	}
}
