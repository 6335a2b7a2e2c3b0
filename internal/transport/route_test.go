package transport

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// meanAgg builds a d-dimensional mean aggregator for routing tests.
func meanAgg(t *testing.T, d int) *highdim.Aggregator {
	t.Helper()
	p, err := highdim.NewProtocol(ldp.Piecewise{}, 1.0, d, d)
	if err != nil {
		t.Fatal(err)
	}
	return highdim.NewAggregator(p)
}

// meanFactory builds mean aggregators from specs (D only).
func meanFactory(t *testing.T) est.Factory {
	t.Helper()
	return func(spec est.QuerySpec) (est.Core, error) {
		p, err := highdim.NewProtocol(ldp.Piecewise{}, spec.Eps, spec.D, spec.M)
		if err != nil {
			return nil, err
		}
		return highdim.NewAggregator(p), nil
	}
}

// listenRegistry serves reg on an ephemeral port and returns its address.
func listenRegistry(t *testing.T, reg *est.Registry) string {
	t.Helper()
	srv := NewRegistryServer(reg)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

func rep2(a, b float64) est.Report {
	return est.Report{Dims: []uint32{0, 1}, Values: []float64{a, b}}
}

func TestQuerySpecWireRoundTrip(t *testing.T) {
	specs := []est.QuerySpec{
		{Name: "temps", Kind: est.KindMean, Mech: "piecewise", Eps: 0.8, D: 16, M: 8},
		{Name: "pets", Kind: est.KindFreq, Mech: "squarewave", Eps: 0.4, Cards: []int{3, 4, 5}, M: 2},
		{Name: "vitals", Kind: est.KindWholeTuple, Eps: 0.5, D: 4, M: 4},
	}
	for _, spec := range specs {
		var buf bytes.Buffer
		if err := WriteOpenQuery(&buf, spec); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		ft, err := readFrameType(&buf)
		if err != nil || ft != frameOpenQuery {
			t.Fatalf("%s: frame type %v, err %v", spec.Name, ft, err)
		}
		got, err := DecodeQuerySpec(&buf)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if got.Name != spec.Name || got.Kind != spec.Kind || got.Mech != spec.Mech ||
			got.Eps != spec.Eps || got.D != spec.D || got.M != spec.M || len(got.Cards) != len(spec.Cards) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, spec)
		}
		for i := range spec.Cards {
			if got.Cards[i] != spec.Cards[i] {
				t.Fatalf("cards mismatch: %v vs %v", got.Cards, spec.Cards)
			}
		}
	}
}

func TestQuerySpecRejectsHostileCards(t *testing.T) {
	// A tiny OPENQUERY frame must not be able to force a huge collector
	// allocation: per-card values and the flattened total are bounded.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 1, 'x'}) // name "x"
	buf.Write([]byte{0, 0, 0, 0})      // kind ""
	buf.Write([]byte{0, 0, 0, 0})      // mech ""
	buf.Write(make([]byte, 8))         // eps
	buf.Write(make([]byte, 8))         // d, m
	buf.Write([]byte{0, 0, 0, 1})      // 1 card...
	buf.Write([]byte{0x7F, 0xFF, 0xFF, 0xFF})
	if _, err := DecodeQuerySpec(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "card") {
		t.Fatalf("hostile card value = %v, want card-limit rejection", err)
	}
	// Many small cards overflowing the total entry bound are rejected too.
	var buf2 bytes.Buffer
	buf2.Write([]byte{0, 0, 0, 1, 'x'})
	buf2.Write([]byte{0, 0, 0, 0})
	buf2.Write([]byte{0, 0, 0, 0})
	buf2.Write(make([]byte, 16))
	buf2.Write([]byte{0, 0, 0, 4}) // 4 cards × 2^19 = 2^21 > maxPairs
	for i := 0; i < 4; i++ {
		buf2.Write([]byte{0, 8, 0, 0})
	}
	if _, err := DecodeQuerySpec(bytes.NewReader(buf2.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "total entries") {
		t.Fatalf("hostile card total = %v, want total-entries rejection", err)
	}
}

func TestRoutedReportsLandInNamedQueries(t *testing.T) {
	reg := est.NewRegistry(meanFactory(t), nil)
	if _, err := reg.Attach(est.QuerySpec{Name: est.DefaultName}, meanAgg(t, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open(est.QuerySpec{Name: "alpha", Kind: est.KindMean, Eps: 1, D: 2}); err != nil {
		t.Fatal(err)
	}
	addr := listenRegistry(t, reg)

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Legacy un-routed send lands in the default query.
	if err := cl.Send(rep2(0.5, -0.5)); err != nil {
		t.Fatal(err)
	}
	// Routed send lands in alpha only.
	qa := cl.Query("alpha")
	if err := qa.Send(rep2(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := qa.Send(rep2(1, 1)); err != nil {
		t.Fatal(err)
	}
	defCounts := reg.Default().Estimator().Counts()
	alphaCounts, err := qa.Counts()
	if err != nil {
		t.Fatal(err)
	}
	if defCounts[0] != 1 || alphaCounts[0] != 2 {
		t.Fatalf("counts: default %v, alpha %v; want 1 and 2", defCounts, alphaCounts)
	}
	// The routed estimate differs from the default's.
	ae, err := qa.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	de, err := cl.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if ae[0] == de[0] {
		t.Fatalf("routed and default estimates identical: %v vs %v", ae, de)
	}
}

func TestRouteToUnknownQueryKeepsConnectionUsable(t *testing.T) {
	reg := est.NewRegistry(nil, nil)
	if _, err := reg.Attach(est.QuerySpec{Name: est.DefaultName}, meanAgg(t, 2)); err != nil {
		t.Fatal(err)
	}
	addr := listenRegistry(t, reg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ghost := cl.Query("ghost")
	if err := ghost.Send(rep2(0.1, 0.2)); err == nil {
		t.Fatal("send to unknown query succeeded")
	}
	if _, err := ghost.Estimate(); err == nil {
		t.Fatal("estimate of unknown query succeeded")
	}
	if _, err := ghost.SendBatch([]est.Report{rep2(0.1, 0.2)}); err == nil {
		t.Fatal("batch to unknown query succeeded")
	}
	if _, err := ghost.PullSnapshot(); err == nil {
		t.Fatal("snapshot of unknown query succeeded")
	}
	if err := ghost.PushSnapshot(est.Snapshot{Kind: highdim.KindMean, Dims: 2,
		Sums: []float64{0, 0}, Counts: []int64{0, 0}}); err == nil {
		t.Fatal("merge into unknown query succeeded")
	}
	// After five failed routes the same connection still serves the
	// default query — no desync, no teardown.
	if err := cl.Send(rep2(0.3, 0.4)); err != nil {
		t.Fatalf("connection unusable after bad routes: %v", err)
	}
	if got := reg.Default().Estimator().Counts()[0]; got != 1 {
		t.Fatalf("default query count = %d, want 1", got)
	}
}

// TestOverlongRouteNameKeepsConnectionInSync checks that a handle whose
// query name exceeds the wire limit fails its exchange before writing
// any of its route header: the next exchange on the same connection is
// answered, not read by the collector as the rest of a SELECT.
func TestOverlongRouteNameKeepsConnectionInSync(t *testing.T) {
	reg := est.NewRegistry(nil, nil)
	if _, err := reg.Attach(est.QuerySpec{Name: est.DefaultName}, meanAgg(t, 2)); err != nil {
		t.Fatal(err)
	}
	addr := listenRegistry(t, reg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTimeout(5 * time.Second)
	long := strings.Repeat("q", maxNameLen+1)
	if _, err := cl.Query(long).Estimate(); err == nil {
		t.Fatal("estimate routed to an overlong name succeeded")
	}
	if _, err := cl.QueryAt(long, 1).Counts(); err == nil {
		t.Fatal("counts routed to an overlong pinned name succeeded")
	}
	if err := cl.Send(rep2(0.3, 0.4)); err != nil {
		t.Fatalf("connection out of sync after overlong route names: %v", err)
	}
	if got := reg.Default().Estimator().Counts()[0]; got != 1 {
		t.Fatalf("default query count = %d, want 1", got)
	}
}

// TestUnroutableFramesTearDownRoutedConnection is the routing rules as
// one table: a frame that acts on the whole collector (OPENQUERY,
// CHECKPOINT, HELLO) or names its query in the body (QUERYINFO, CBATCH)
// must tear the connection down behind either route prefix — SELECT or
// SELECTGEN — without being served, while the collector keeps serving
// other connections.
func TestUnroutableFramesTearDownRoutedConnection(t *testing.T) {
	reg := est.NewRegistry(meanFactory(t), nil)
	if _, err := reg.Attach(est.QuerySpec{Name: est.DefaultName}, meanAgg(t, 2)); err != nil {
		t.Fatal(err)
	}
	srv := NewRegistryServer(reg)
	srv.Logf = func(string, ...any) {}
	var checkpoints atomic.Int32
	srv.OnCheckpoint = func() error {
		checkpoints.Add(1)
		return nil
	}
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := bound.String()

	cbatch, err := CodecV2{}.AppendBatch(nil, "", 0, []est.Report{rep2(0.1, 0.2)})
	if err != nil {
		t.Fatal(err)
	}
	gen := reg.Default().Gen()
	routes := []struct {
		name  string
		write func(*bufio.Writer) error
	}{
		{"SELECT", func(w *bufio.Writer) error { return writeSelect(w, est.DefaultName) }},
		{"SELECTGEN", func(w *bufio.Writer) error { return writeSelectGen(w, est.DefaultName, gen) }},
	}
	frames := []struct {
		name  string
		write func(*bufio.Writer) error
	}{
		{"OPENQUERY", func(w *bufio.Writer) error {
			return WriteOpenQuery(w, est.QuerySpec{Name: "routed", Kind: est.KindMean, Mech: "piecewise", Eps: 0.5, D: 2, M: 1})
		}},
		{"CHECKPOINT", func(w *bufio.Writer) error { return w.WriteByte(frameCheckpoint) }},
		{"QUERYINFO", func(w *bufio.Writer) error {
			if err := w.WriteByte(frameQueryInfo); err != nil {
				return err
			}
			return writeString(w, est.DefaultName, maxNameLen)
		}},
		{"HELLO", func(w *bufio.Writer) error { return writeHello(w, 0, 0, false) }},
		{"CBATCH", func(w *bufio.Writer) error {
			_, err := w.Write(cbatch)
			return err
		}},
	}
	for _, route := range routes {
		for _, frame := range frames {
			t.Run(route.name+"/"+frame.name, func(t *testing.T) {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				w := bufio.NewWriter(conn)
				if err := route.write(w); err != nil {
					t.Fatal(err)
				}
				if err := frame.write(w); err != nil {
					t.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				var b [1]byte
				n, err := conn.Read(b[:])
				if n > 0 {
					t.Fatalf("server answered a routed %s with 0x%02x; want the connection torn down", frame.name, b[0])
				}
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatalf("server neither answered nor closed after a routed %s", frame.name)
				}
			})
		}
	}

	// None of the routed frames was served.
	if got := checkpoints.Load(); got != 0 {
		t.Errorf("checkpoint hook ran %d times; want 0", got)
	}
	if reg.Get("routed") != nil {
		t.Error("a routed OPENQUERY registered its query")
	}
	if got := reg.Default().Estimator().Counts(); got[0] != 0 || got[1] != 0 {
		t.Errorf("a routed CBATCH landed: counts %v", got)
	}
	if st := srv.Stats(); st.SessionsOpened != 0 || st.CBatches != 0 {
		t.Errorf("stats = %+v; want no session opened and no CBATCH served", st)
	}
	// The collector keeps serving, and the same frames un-routed are
	// served on a fresh connection.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Checkpoint(); err != nil {
		t.Fatalf("un-routed CHECKPOINT: %v", err)
	}
	if _, err := cl.QueryInfo(est.DefaultName); err != nil {
		t.Fatalf("un-routed QUERYINFO: %v", err)
	}
}

func TestOpenQueryOverWire(t *testing.T) {
	acct := &countingAdmission{limit: 2}
	reg := est.NewRegistry(meanFactory(t), acct)
	addr := listenRegistry(t, reg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	q, err := cl.Open(est.QuerySpec{Name: "remote", Kind: est.KindMean, Eps: 1, D: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := q.Send(rep2(0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Get("remote").Estimator().Counts()[0]; got != 1 {
		t.Fatalf("remote query count = %d, want 1", got)
	}
	// Duplicate name: the rejection carries the server's reason and
	// names the query.
	if _, err := cl.Open(est.QuerySpec{Name: "remote", Kind: est.KindMean, Eps: 1, D: 2}); err == nil ||
		!strings.Contains(err.Error(), "already exists") || !strings.Contains(err.Error(), `"remote"`) {
		t.Fatalf("duplicate Open = %v, want 'already exists' naming the query", err)
	}
	// Admission limit reached: rejection also carries the reason.
	if _, err := cl.Open(est.QuerySpec{Name: "third", Kind: est.KindMean, Eps: 1, D: 2}); err != nil {
		t.Fatalf("second Open: %v", err)
	}
	if _, err := cl.Open(est.QuerySpec{Name: "fourth", Kind: est.KindMean, Eps: 1, D: 2}); err == nil ||
		!strings.Contains(err.Error(), "limit") || !strings.Contains(err.Error(), `"fourth"`) {
		t.Fatalf("over-limit Open = %v, want limit rejection naming the query", err)
	}
	// The connection survives every rejection.
	if _, err := q.Counts(); err != nil {
		t.Fatalf("connection unusable after rejected opens: %v", err)
	}
}

// countingAdmission admits up to limit queries.
type countingAdmission struct {
	mu    sync.Mutex
	n     int
	limit int
}

func (a *countingAdmission) Admit(spec est.QuerySpec) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n >= a.limit {
		return &limitErr{}
	}
	a.n++
	return nil
}
func (a *countingAdmission) Release(est.QuerySpec) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n--
}

type limitErr struct{}

func (*limitErr) Error() string { return "admission: query limit reached" }

func TestSealedQueryRejectsReportsServesEstimates(t *testing.T) {
	reg := est.NewRegistry(meanFactory(t), nil)
	if _, err := reg.Open(est.QuerySpec{Name: "metrics", Kind: est.KindMean, Eps: 1, D: 2}); err != nil {
		t.Fatal(err)
	}
	addr := listenRegistry(t, reg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	q := cl.Query("metrics")
	if err := q.Send(rep2(0.5, -0.5)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Seal("metrics"); err != nil {
		t.Fatal(err)
	}
	if err := q.Send(rep2(0.5, -0.5)); err == nil {
		t.Fatal("send after seal succeeded over the wire")
	}
	if acc, err := q.SendBatch([]est.Report{rep2(0.1, 0.1)}); err != nil || acc != 0 {
		t.Fatalf("batch after seal: accepted=%d err=%v, want 0 accepted", acc, err)
	}
	counts, err := q.Counts()
	if err != nil {
		t.Fatalf("sealed query stopped serving counts: %v", err)
	}
	if counts[0] != 1 {
		t.Fatalf("sealed count = %d, want 1 (post-seal sends must not land)", counts[0])
	}
	if _, err := q.Estimate(); err != nil {
		t.Fatalf("sealed query stopped serving estimates: %v", err)
	}
	if _, err := q.PullSnapshot(); err != nil {
		t.Fatalf("sealed query stopped serving snapshots: %v", err)
	}
}

func TestBufferedClientRoutesToNamedQuery(t *testing.T) {
	reg := est.NewRegistry(meanFactory(t), nil)
	if _, err := reg.Attach(est.QuerySpec{Name: est.DefaultName}, meanAgg(t, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open(est.QuerySpec{Name: "alpha", Kind: est.KindMean, Eps: 1, D: 2}); err != nil {
		t.Fatal(err)
	}
	addr := listenRegistry(t, reg)
	bc, err := DialBuffered(addr, WithBatchSize(8), WithQueryName("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := bc.Add(rep2(0.5, -0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	if got := bc.Accepted(); got != n {
		t.Fatalf("accepted = %d, want %d", got, n)
	}
	if got := reg.Get("alpha").Estimator().Counts()[0]; got != n {
		t.Fatalf("alpha count = %d, want %d", got, n)
	}
	if got := reg.Default().Estimator().Counts()[0]; got != 0 {
		t.Fatalf("default query caught %d routed reports", got)
	}
}

func TestSnapshotContextTimesOutOnUnresponsivePeer(t *testing.T) {
	// A listener that accepts and then never replies: the legacy
	// PullSnapshot would block forever here.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			_ = conn // swallow everything, reply with nothing
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	cl, err := DialContext(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	if _, err := cl.PullSnapshotContext(ctx); err == nil {
		t.Fatal("pull from unresponsive peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pull took %v, deadline did not apply", elapsed)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	cl2, err := DialContext(ctx2, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	start = time.Now()
	if err := cl2.PushSnapshotContext(ctx2, est.Snapshot{Kind: "mean", Dims: 1,
		Sums: []float64{0}, Counts: []int64{0}}); err == nil {
		t.Fatal("push to unresponsive peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("push took %v, deadline did not apply", elapsed)
	}
}

func TestSnapshotContextCancellationUnblocks(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_ = conn
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	cl, err := DialContext(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := cl.PullSnapshotContext(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled pull succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock the exchange")
	}
}

// TestRoutedExchangeDeterminism routes interleaved traffic from many
// goroutines over ONE shared connection to two queries and checks nothing
// desyncs: every ack matches its exchange under the race detector.
func TestRoutedConcurrentSharedConnection(t *testing.T) {
	reg := est.NewRegistry(meanFactory(t), nil)
	for _, name := range []string{"a", "b"} {
		if _, err := reg.Open(est.QuerySpec{Name: name, Kind: est.KindMean, Eps: 1, D: 2}); err != nil {
			t.Fatal(err)
		}
	}
	addr := listenRegistry(t, reg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const perWorker = 40
	var wg sync.WaitGroup
	rng := mathx.NewRNG(7)
	for w := 0; w < 4; w++ {
		name := []string{"a", "b"}[w%2]
		wrng := rng.Child(uint64(w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := cl.Query(name)
			for i := 0; i < perWorker; i++ {
				if err := q.Send(rep2(wrng.Float64()-0.5, wrng.Float64()-0.5)); err != nil {
					t.Errorf("query %s: %v", name, err)
					return
				}
				if i%16 == 0 {
					if _, err := q.Estimate(); err != nil {
						t.Errorf("query %s estimate: %v", name, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, name := range []string{"a", "b"} {
		if got := reg.Get(name).Estimator().Counts()[0]; got != 2*perWorker {
			t.Fatalf("query %s count = %d, want %d", name, got, 2*perWorker)
		}
	}
}
