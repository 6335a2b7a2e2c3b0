package hdr4me

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
)

// minimalEstimator implements only the eight Estimator methods: no
// batch path, no lanes, no vectors into the caller's buffer, no
// detached reports and no enhanced estimate.
type minimalEstimator struct {
	sums   []float64
	counts []int64
}

func (e *minimalEstimator) Kind() string              { return "minimal-test" }
func (e *minimalEstimator) Dims() int                 { return len(e.sums) }
func (e *minimalEstimator) Observe(Tuple, *RNG) error { return nil }
func (e *minimalEstimator) Estimate() []float64       { return append([]float64(nil), e.sums...) }
func (e *minimalEstimator) Counts() []int64           { return append([]int64(nil), e.counts...) }
func (e *minimalEstimator) Merge(Snapshot) error      { return nil }
func (e *minimalEstimator) AddReport(rep Report) error {
	for i, j := range rep.Dims {
		e.sums[j] += rep.Values[i]
		e.counts[j]++
	}
	return nil
}
func (e *minimalEstimator) Snapshot() Snapshot {
	return Snapshot{Kind: e.Kind(), Dims: e.Dims(), Sums: e.Estimate(), Counts: e.Counts()}
}

// TestServeMinimalEstimator serves an estimator with only the eight
// Estimator methods through NewEstimatorServer, which adapts it once:
// reports sent over the wire land through its AddReport, Estimate,
// Counts and PullSnapshot answer what it answers in process, and
// Enhanced gets the rejection status while the connection keeps
// serving.
func TestServeMinimalEstimator(t *testing.T) {
	e := &minimalEstimator{sums: make([]float64, 3), counts: make([]int64, 3)}
	srv := NewEstimatorServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialCollector(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Send(Report{Dims: []uint32{0, 2}, Values: []float64{0.5, -0.25}}); err != nil {
		t.Fatal(err)
	}
	if n, err := cl.SendBatch([]Report{{Dims: []uint32{1}, Values: []float64{0.75}}, {Dims: []uint32{2}, Values: []float64{1}}}); err != nil || n != 2 {
		t.Fatalf("SendBatch accepted %d: %v", n, err)
	}

	est, err := cl.Estimate()
	if err != nil || !reflect.DeepEqual(est, e.Estimate()) {
		t.Fatalf("Estimate over the wire %v (%v), in process %v", est, err, e.Estimate())
	}
	counts, err := cl.Counts()
	if err != nil || !reflect.DeepEqual(counts, e.Counts()) {
		t.Fatalf("Counts over the wire %v (%v), in process %v", counts, err, e.Counts())
	}
	snap, err := cl.PullSnapshot()
	if err != nil || !reflect.DeepEqual(snap, e.Snapshot()) {
		t.Fatalf("PullSnapshot over the wire %+v (%v), in process %+v", snap, err, e.Snapshot())
	}
	if got, err := cl.Enhanced(); err == nil || !strings.Contains(err.Error(), "cannot serve an enhanced estimate") {
		t.Fatalf("Enhanced of an estimator without one: %v, %v; want the rejection", got, err)
	}
	if again, err := cl.Estimate(); err != nil || !reflect.DeepEqual(again, est) {
		t.Fatalf("Estimate after the rejected Enhanced: %v, %v", again, err)
	}
}

// fullEstimator is a custom estimator with every optional path the
// adapter looks up: detached reports, a columnar batch path, its own
// lanes and an enhanced estimate. It counts the calls each path gets.
type fullEstimator struct {
	minimalEstimator
	mu                            sync.Mutex
	reports, columns, lanes, adds int
}

func (e *fullEstimator) AddReport(rep Report) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.adds++
	return e.minimalEstimator.AddReport(rep)
}

func (e *fullEstimator) MakeReport(t Tuple, _ *RNG) (Report, error) {
	e.mu.Lock()
	e.reports++
	e.mu.Unlock()
	rep := Report{Dims: make([]uint32, len(t.Values)), Values: make([]float64, len(t.Values))}
	for j := range t.Values {
		rep.Dims[j] = uint32(j)
		rep.Values[j] = 0.5 // a stand-in release
	}
	return rep, nil
}

func (e *fullEstimator) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	e.mu.Lock()
	e.columns++
	e.mu.Unlock()
	for i := 0; i < n; i++ {
		if err := e.AddReport(Report{Dims: dims[i*ndims : (i+1)*ndims], Values: vals[i*nvals : (i+1)*nvals]}); err != nil {
			return i, err
		}
	}
	return n, nil
}

func (e *fullEstimator) AcquireLane() est.Lane {
	e.mu.Lock()
	e.lanes++
	e.mu.Unlock()
	return fullLane{e}
}

func (e *fullEstimator) Enhanced() ([]float64, error) { return []float64{1, 2, 3}, nil }

// fullLane is fullEstimator's lane: it adds straight into the estimator.
type fullLane struct{ e *fullEstimator }

func (l fullLane) AddReport(rep Report) error { return l.e.AddReport(rep) }

func (l fullLane) AddReports(reps []Report) (int, error) {
	for i, rep := range reps {
		if err := l.e.AddReport(rep); err != nil {
			return i, err
		}
	}
	return len(reps), nil
}

func (l fullLane) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	return l.e.AddColumns(n, ndims, nvals, dims, vals)
}

func newFullEstimator() *fullEstimator {
	return &fullEstimator{minimalEstimator: minimalEstimator{sums: make([]float64, 3), counts: make([]int64, 3)}}
}

// TestSessionCustomOptionalPaths checks that a Session built
// WithEstimator reaches every optional path the estimator has: Report
// through its MakeReport, Observe through its lanes, Run's Result with
// its Enhanced under WithEnhance, and Estimator and ServingEstimator
// both handing back the injected object.
func TestSessionCustomOptionalPaths(t *testing.T) {
	e := newFullEstimator()
	s, err := New(WithEstimator(e), WithEnhance(DefaultEnhanceConfig(RegL1)), WithSeed(1), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.Estimator() != Estimator(e) || s.ServingEstimator() != Estimator(e) {
		t.Fatalf("Estimator %T and ServingEstimator %T, want the injected %T", s.Estimator(), s.ServingEstimator(), e)
	}
	rep, err := s.Report(Tuple{Values: []float64{0.1, 0.2, 0.3}})
	if err != nil || len(rep.Dims) != 3 || e.reports != 1 {
		t.Fatalf("Report = %+v, %v after %d MakeReport calls; want the estimator's report", rep, err, e.reports)
	}
	if e.lanes == 0 {
		t.Fatal("New acquired none of the estimator's lanes")
	}
	if err := s.Observe(Tuple{Values: []float64{0.1, 0.2, 0.3}}); err != nil {
		t.Fatal(err)
	}
	if e.reports != 2 || e.adds != 1 {
		t.Fatalf("Observe made %d reports and %d adds, want one of each through a lane", e.reports-1, e.adds)
	}
	res, err := s.Run(context.Background(), NewUniformDataset(10, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Enhanced, []float64{1, 2, 3}) {
		t.Fatalf("Run's Enhanced = %v, want the estimator's", res.Enhanced)
	}

	plain, err := New(WithEstimator(newFullEstimator()), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := plain.Run(context.Background(), NewUniformDataset(10, 3, 2)); err != nil || res.Enhanced != nil {
		t.Fatalf("Run without WithEnhance: Enhanced %v, %v; want nil", res.Enhanced, err)
	}
}

// TestServeCustomColumns checks that CBATCH frames sent to a served
// custom estimator with a columnar path land through it, one call per
// frame, rather than as per-report views.
func TestServeCustomColumns(t *testing.T) {
	e := newFullEstimator()
	srv := NewEstimatorServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	bc, err := DialCollectorBuffered(addr.String(), WithBatchSize(4), WithProtocolVersion(ProtocolV2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := bc.Add(Report{Dims: []uint32{uint32(i % 3)}, Values: []float64{0.25}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.columns != 2 || e.adds != 8 {
		t.Fatalf("two 4-report CBATCH frames made %d AddColumns calls and %d adds, want 2 and 8", e.columns, e.adds)
	}
}
