package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/hdr4me/hdr4me/internal/epoch"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// TestMaxConnsShedsExcessConnections: with the connection gate at 2,
// a third client is NACKed retryable and disconnected, and the slot
// becomes available again once a held connection leaves.
func TestMaxConnsShedsExcessConnections(t *testing.T) {
	proto, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startHardenedServer(t, proto, func(s *Server) { s.MaxConns = 2 })

	// Probe with an ack-carrying exchange: the shed NACK arrives where a
	// status byte is expected, so it surfaces as ErrOverloaded.
	dialAndProbe := func() (*Client, error) {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		cl.SetTimeout(5 * time.Second)
		if err := cl.Send(est.Report{Dims: []uint32{0}, Values: []float64{0.5}}); err != nil {
			cl.Close()
			return nil, err
		}
		return cl, nil
	}

	cl1, err := dialAndProbe()
	if err != nil {
		t.Fatalf("conn 1: %v", err)
	}
	defer cl1.Close()
	cl2, err := dialAndProbe()
	if err != nil {
		t.Fatalf("conn 2: %v", err)
	}
	defer cl2.Close()

	// Third connection: accepted at TCP level, then shed with the
	// retryable NACK.
	if _, err := dialAndProbe(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("conn 3 error = %v; want ErrOverloaded", err)
	}
	if stats := srv.Stats(); stats.ConnsShed == 0 {
		t.Fatalf("stats = %+v; want ConnsShed > 0", stats)
	}

	// Freeing a slot lets a retry in. The shed connection's slot release
	// is asynchronous, so retry briefly.
	cl2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl4, err := dialAndProbe()
		if err == nil {
			cl4.Close()
			break
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("retry after slot freed: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("no connection admitted after a slot was freed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// blockingEstimator parks every batch in AddReports until released,
// holding the server's in-flight gate open for as long as a test needs.
type blockingEstimator struct {
	entered chan struct{} // signaled once per AddReports entry
	release chan struct{} // closed to let all parked batches finish
	dims    int
}

func (e *blockingEstimator) Kind() string { return "blocking-test" }
func (e *blockingEstimator) Dims() int    { return e.dims }
func (e *blockingEstimator) Observe(est.Tuple, *mathx.RNG) error {
	return errors.New("not implemented")
}
func (e *blockingEstimator) AddReport(est.Report) error { return nil }
func (e *blockingEstimator) AddReports(reps []est.Report) (int, error) {
	e.entered <- struct{}{}
	<-e.release
	return len(reps), nil
}
func (e *blockingEstimator) Estimate() []float64 { return make([]float64, e.dims) }
func (e *blockingEstimator) Counts() []int64     { return make([]int64, e.dims) }
func (e *blockingEstimator) Snapshot() est.Snapshot {
	return est.Snapshot{Kind: e.Kind(), Dims: e.dims}
}
func (e *blockingEstimator) Merge(est.Snapshot) error { return nil }

// testReports builds n minimal in-range reports.
func testReports(n int) []est.Report {
	reps := make([]est.Report, n)
	for i := range reps {
		reps[i] = est.Report{Dims: []uint32{0}, Values: []float64{0.5}}
	}
	return reps
}

// TestMaxInflightShedsBatchUnderLoad: while one connection's batch is
// parked inside the estimator, a second batch that would push the
// in-flight total past the gate is shed with the retryable NACK —
// without waiting behind the stuck batch.
func TestMaxInflightShedsBatchUnderLoad(t *testing.T) {
	be := &blockingEstimator{
		entered: make(chan struct{}, 8),
		release: make(chan struct{}),
		dims:    4,
	}
	srv := NewServer(be)
	srv.Logf = t.Logf
	srv.MaxInflight = 1000
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cl1, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	cl2, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()

	// Connection 1 parks 900 reports inside the estimator.
	done := make(chan error, 1)
	go func() {
		_, err := cl1.SendBatch(testReports(900))
		done <- err
	}()
	<-be.entered // the batch is inside AddReports, gate at 900/1000

	// Connection 2's 200-report batch must be shed quickly, not queued
	// behind the parked batch.
	cl2.SetTimeout(5 * time.Second)
	start := time.Now()
	_, err = cl2.SendBatch(testReports(200))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overload batch error = %v; want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("shed took %v; must not wait behind the parked batch", elapsed)
	}
	if stats := srv.Stats(); stats.BatchesShed == 0 {
		t.Fatalf("stats = %+v; want BatchesShed > 0", stats)
	}

	// Release the parked batch; both connections converge.
	close(be.release)
	if err := <-done; err != nil {
		t.Fatalf("parked batch: %v", err)
	}
	if _, err := cl2.SendBatch(testReports(200)); err != nil {
		t.Fatalf("batch after release: %v", err)
	}
}

// TestMaxInflightShedsEpochBatch: an EPOCH-wrapped batch passes the
// same in-flight admission gate as a top-level one. While a parked batch
// holds the gate, an epoch-tagged batch to a continual query is shed
// with the retryable NACK, leaves the ring untouched, and the connection
// keeps serving once the pressure clears.
func TestMaxInflightShedsEpochBatch(t *testing.T) {
	be := &blockingEstimator{
		entered: make(chan struct{}, 8),
		release: make(chan struct{}),
		dims:    4,
	}
	reg := est.NewRegistry(epochFactory(t, epoch.Config{}), nil)
	if _, err := reg.Attach(est.QuerySpec{Name: est.DefaultName}, be); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open(est.QuerySpec{Name: "cont", Kind: est.KindMean, Eps: 1, D: 2}); err != nil {
		t.Fatal(err)
	}
	ring := reg.Get("cont").Estimator()
	srv := NewRegistryServer(reg)
	srv.Logf = t.Logf
	srv.MaxInflight = 1000
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	// Runs before srv.Close, so a failing assertion cannot leave the
	// parked batch pinning Close forever.
	release := sync.OnceFunc(func() { close(be.release) })
	t.Cleanup(release)

	cl1, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	cl2, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	cl2.SetTimeout(5 * time.Second)

	done := make(chan error, 1)
	go func() {
		_, err := cl1.SendBatch(testReports(900))
		done <- err
	}()
	<-be.entered // the batch is inside AddReports, gate at 900/1000

	late := make([]est.Report, 200)
	for i := range late {
		late[i] = rep2(0.5, -0.5)
	}
	before := ring.Counts()
	shed := srv.Stats().BatchesShed
	q := cl2.Query("cont")
	if _, err := q.SendBatchEpoch(0, late); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("epoch batch under load: err = %v; want ErrOverloaded", err)
	}
	if got := srv.Stats().BatchesShed; got != shed+1 {
		t.Fatalf("BatchesShed = %d; want %d", got, shed+1)
	}
	for j, c := range ring.Counts() {
		if c != before[j] {
			t.Fatalf("shed epoch batch landed: dim %d count %d, was %d", j, c, before[j])
		}
	}

	release()
	if err := <-done; err != nil {
		t.Fatalf("parked batch: %v", err)
	}
	if acc, err := q.SendBatchEpoch(0, late); err != nil || acc != len(late) {
		t.Fatalf("epoch batch after release: accepted %d, err %v", acc, err)
	}
	if got := ring.Counts(); got[0] != before[0]+int64(len(late)) {
		t.Fatalf("dim 0 count %d after release; want %d", got[0], before[0]+int64(len(late)))
	}
}

// TestBufferedClientRetriesShedBatches: a BufferedClient whose batch is
// shed under overload must retry with backoff and converge once the
// pressure clears, with nothing lost and nothing double-counted.
func TestBufferedClientRetriesShedBatches(t *testing.T) {
	be := &blockingEstimator{
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
		dims:    4,
	}
	srv := NewServer(be)
	srv.Logf = t.Logf
	srv.MaxInflight = 1000
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// Park 900 reports to hold the gate nearly shut.
	cl1, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	parked := make(chan error, 1)
	go func() {
		_, err := cl1.SendBatch(testReports(900))
		parked <- err
	}()
	<-be.entered

	// The buffered client's 200-report batch is shed; it must keep
	// retrying. Clear the pressure shortly after, from a goroutine so
	// the retry loop is what observes the transition.
	bc, err := DialBuffered(addr.String(), WithBatchSize(200), WithReconnectLimit(50))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(200 * time.Millisecond)
		close(be.release)
	}()
	for _, rep := range testReports(200) {
		if err := bc.Add(rep); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := bc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := <-parked; err != nil {
		t.Fatalf("parked batch: %v", err)
	}
	if got := bc.Accepted(); got != 200 {
		t.Fatalf("Accepted() = %d; want 200 after retries", got)
	}
	if err := bc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
