package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/freq"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/recal"
)

func TestSendBatchCountsRejectsPartially(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startTestServer(t, p)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	batch := []est.Report{
		{Dims: []uint32{0}, Values: []float64{0.5}},
		{Dims: []uint32{99}, Values: []float64{1}}, // out of range: rejected
		{Dims: []uint32{3}, Values: []float64{-0.25}},
	}
	accepted, err := cl.SendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 2 {
		t.Fatalf("accepted %d of batch, want 2", accepted)
	}
	// The rejected report must not poison the connection or the state.
	counts, err := cl.Counts()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 2 {
		t.Fatalf("collector saw %d pairs, want 2", total)
	}
}

func TestSendBatchEmptyAndOversized(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startTestServer(t, p)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if accepted, err := cl.SendBatch(nil); err != nil || accepted != 0 {
		t.Fatalf("empty batch: accepted %d, err %v", accepted, err)
	}
	if _, err := cl.SendBatch(make([]est.Report, maxBatch+1)); err == nil {
		t.Fatal("oversized batch must be refused client-side")
	}
	// The refusal happened before any bytes were written: still usable.
	if _, err := cl.Counts(); err != nil {
		t.Fatalf("connection unusable after refused oversized batch: %v", err)
	}
}

func TestBufferedClientSizeAndExplicitFlush(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startTestServer(t, p)
	bc, err := DialBuffered(addr, WithBatchSize(8))
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	const reports = 100 // 12 full batches pipeline, 4 left for Flush
	for i := 0; i < reports; i++ {
		if err := bc.Add(est.Report{Dims: []uint32{uint32(i % 4)}, Values: []float64{0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bc.Flush(); err != nil {
		t.Fatal(err)
	}
	if bc.Sent() != reports || bc.Accepted() != reports {
		t.Fatalf("sent %d accepted %d, want %d", bc.Sent(), bc.Accepted(), reports)
	}
	// After Flush the connection is quiescent: direct Client queries work.
	counts, err := bc.c.Counts()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != reports {
		t.Fatalf("collector saw %d pairs, want %d", total, reports)
	}
}

func TestBufferedClientFlushInterval(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startTestServer(t, p)
	bc, err := DialBuffered(addr, WithBatchSize(1024), WithFlushInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	if err := bc.Add(est.Report{Dims: []uint32{1}, Values: []float64{0.5}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if bc.Accepted() == 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("interval flush never shipped the report (accepted %d)", bc.Accepted())
}

func TestBufferedClientCloseFlushes(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startTestServer(t, p)
	bc, err := DialBuffered(addr, WithBatchSize(1024))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := bc.Add(est.Report{Dims: []uint32{0}, Values: []float64{0.1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bc.Add(est.Report{}); err == nil {
		t.Fatal("Add after Close must fail")
	}
	if got := srv.Registry().Default().Estimator().Counts()[0]; got != 5 {
		t.Fatalf("close flushed %d reports, want 5", got)
	}
}

// TestClientConcurrentSendAndEstimate interleaves Send and Estimate from
// multiple goroutines on ONE client: the internal mutex must keep the
// frame and ack streams in sync (run with -race).
func TestClientConcurrentSendAndEstimate(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startTestServer(t, p)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				switch (g + i) % 3 {
				case 0:
					rep := est.Report{Dims: []uint32{uint32(i % 8)}, Values: []float64{0.25}}
					if err := cl.Send(rep); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				case 1:
					if e, err := cl.Estimate(); err != nil || len(e) != 8 {
						t.Errorf("estimate: len %d, err %v", len(e), err)
						return
					}
				default:
					if _, err := cl.SendBatch([]est.Report{
						{Dims: []uint32{uint32(i % 8)}, Values: []float64{-0.25}},
					}); err != nil {
						t.Errorf("batch: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestShardFoldOverTCP is the end-to-end shard-composition check: the same
// reports split across two shard collectors, folded into a root over
// SNAPSHOT (pull) and MERGE (push) wire frames, must reproduce the
// single-collector estimate.
func TestShardFoldOverTCP(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 4, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic report set shared by both topologies.
	rng := mathx.NewRNG(7)
	reports := make([]est.Report, 2000)
	for i := range reports {
		rep := est.Report{Dims: make([]uint32, 3), Values: make([]float64, 3)}
		base := uint32(i % 4) // dims must be strictly increasing within [0, 6)
		for k := 0; k < 3; k++ {
			rep.Dims[k] = base + uint32(k)
			rep.Values[k] = ldp.Laplace{}.Perturb(rng, math.Sin(float64(i+k)), 4.0/3)
		}
		reports[i] = rep
	}

	_, single := startTestServer(t, p)
	_, shardA := startTestServer(t, p)
	_, shardB := startTestServer(t, p)
	_, root := startTestServer(t, p)

	send := func(addr string, reps []est.Report) {
		t.Helper()
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		accepted, err := cl.SendBatch(reps)
		if err != nil || accepted != len(reps) {
			t.Fatalf("batch to %s: accepted %d/%d, err %v", addr, accepted, len(reps), err)
		}
	}
	send(single, reports)
	half := len(reports) / 2
	send(shardA, reports[:half])
	send(shardB, reports[half:])

	// Fold A by pulling its snapshot and pushing it into the root; fold B
	// by pulling straight into a push — both directions over the wire.
	clA, err := Dial(shardA)
	if err != nil {
		t.Fatal(err)
	}
	defer clA.Close()
	snapA, err := clA.PullSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	clRoot, err := Dial(root)
	if err != nil {
		t.Fatal(err)
	}
	defer clRoot.Close()
	if err := clRoot.PushSnapshot(snapA); err != nil {
		t.Fatal(err)
	}
	clB, err := Dial(shardB)
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	snapB, err := clB.PullSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := clRoot.PushSnapshot(snapB); err != nil {
		t.Fatal(err)
	}

	clS, err := Dial(single)
	if err != nil {
		t.Fatal(err)
	}
	defer clS.Close()
	want, err := clS.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := clRoot.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("estimate widths differ: %d vs %d", len(got), len(want))
	}
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-9*math.Max(1, math.Abs(want[j])) {
			t.Fatalf("dim %d: folded %v, single %v", j, got[j], want[j])
		}
	}
	wantCounts, err := clS.Counts()
	if err != nil {
		t.Fatal(err)
	}
	gotCounts, err := clRoot.Counts()
	if err != nil {
		t.Fatal(err)
	}
	for j := range wantCounts {
		if gotCounts[j] != wantCounts[j] {
			t.Fatalf("counts dim %d: folded %d, single %d", j, gotCounts[j], wantCounts[j])
		}
	}
}

// TestMergeKindMismatchNACK: pushing a frequency snapshot into a mean
// collector must NACK without killing the connection.
func TestMergeKindMismatchNACK(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startTestServer(t, p)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f, err := freq.NewFlat(freq.Protocol{Mech: ldp.Laplace{}, Eps: 1, Cards: []int{3}, M: 1},
		recal.DefaultConfig(recal.RegL1))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.PushSnapshot(f.Snapshot()); err == nil {
		t.Fatal("mean collector must reject a freq snapshot")
	}
	if _, err := cl.Counts(); err != nil {
		t.Fatalf("connection unusable after rejected merge: %v", err)
	}
}

// TestSnapshotRoundTripOverWireForEveryFamily pulls a snapshot from a
// server of each estimator family and merges it into a fresh local peer.
func TestSnapshotRoundTripOverWireForEveryFamily(t *testing.T) {
	freshMean := func() est.Core {
		p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		return highdim.NewAggregator(p)
	}
	freshFreq := func() est.Core {
		f, err := freq.NewFlat(freq.Protocol{Mech: ldp.Laplace{}, Eps: 1, Cards: []int{2, 3}, M: 2},
			recal.DefaultConfig(recal.RegL1))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	freshWT := func() est.Core {
		md, err := highdim.NewDuchiMD(3, 1)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := highdim.NewMDAggregator(md)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	cases := []struct {
		name  string
		fresh func() est.Core
		rep   est.Report
	}{
		{"mean", freshMean, est.Report{Dims: []uint32{0, 2}, Values: []float64{0.5, -0.5}}},
		{"freq", freshFreq, est.Report{Dims: []uint32{0, 1}, Values: []float64{1, -1, -1, 1, -1}}},
		{"wholetuple", freshWT, est.Report{Values: []float64{0.5, -0.5, 0.25}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(tc.fresh())
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
			if err := cl.Send(tc.rep); err != nil {
				t.Fatal(err)
			}
			snap, err := cl.PullSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			peer := tc.fresh()
			if err := peer.Merge(snap); err != nil {
				t.Fatalf("merge pulled snapshot: %v", err)
			}
			want, got := srv.Registry().Default().Estimator().Estimate(), peer.Estimate()
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-12 {
					t.Fatalf("dim %d: peer %v, server %v", j, got[j], want[j])
				}
			}
		})
	}
}

// flakyListener fails every Accept with a transient error until closed —
// the EMFILE scenario the accept-loop backoff exists for.
type flakyListener struct {
	accepts atomic.Int64
	done    chan struct{}
	once    sync.Once
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.accepts.Add(1)
	select {
	case <-l.done:
		return nil, net.ErrClosed
	default:
		return nil, fmt.Errorf("accept: too many open files")
	}
}

func (l *flakyListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *flakyListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
}

// TestAcceptLoopBacksOff: a persistently failing Accept must retry with
// exponential backoff, not hot-spin. 150 ms covers at most the 5, 10, 20,
// 40, 80 ms waits — a spinning loop would log thousands of attempts.
func TestAcceptLoopBacksOff(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(highdim.NewAggregator(p))
	srv.Logf = func(string, ...any) {}
	ln := &flakyListener{done: make(chan struct{})}
	if err := srv.Serve(ln); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	got := ln.accepts.Load()
	if got < 2 {
		t.Fatalf("accept loop retried only %d times; backoff must keep retrying", got)
	}
	if got > 20 {
		t.Fatalf("accept loop retried %d times in 150ms; it is hot-spinning", got)
	}
}

// TestCloseBeforeListen: closing a server that never listened is a safe
// no-op, and listening afterwards reports the server closed.
func TestCloseBeforeListen(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(highdim.NewAggregator(p))
	if err := srv.Close(); err != nil {
		t.Fatalf("close before listen: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listen after close: err %v, want net.ErrClosed", err)
	}
}

// TestServeTwiceFails: one server owns one listener.
func TestServeTwiceFails(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(highdim.NewAggregator(p))
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("second Listen on one server must fail")
	}
}

// TestOversizedSnapshotRejectedAtSender: a snapshot the peer's reader
// would refuse must fail with a clear error at the write side, not an
// opaque connection teardown.
func TestOversizedSnapshotRejectedAtSender(t *testing.T) {
	var buf bytes.Buffer
	err := EncodeSnapshot(&buf, est.Snapshot{
		Kind: "mean", Dims: maxPairs + 1,
		Sums: make([]float64, 1), Counts: make([]int64, 1),
	})
	if err == nil {
		t.Fatal("oversized snapshot must be refused at the sender")
	}
}

// TestBufferedClientCopiesEveryReport: Add copies each report, so a
// caller that reuses its slices after Add — here after a shape change
// breaks the rectangle — cannot change what the batch ships.
func TestBufferedClientCopiesEveryReport(t *testing.T) {
	for _, v := range []int{ProtocolV1, ProtocolV2} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			srv, addr := startTestServer(t, p)
			bc, err := DialBuffered(addr, WithBatchSize(16), WithClientOptions(WithProtocolVersion(v)))
			if err != nil {
				t.Fatal(err)
			}
			if err := bc.Add(est.Report{Dims: []uint32{1}, Values: []float64{0.5}}); err != nil {
				t.Fatal(err)
			}
			vals := []float64{0.25, -0.25}
			if err := bc.Add(est.Report{Dims: []uint32{2, 3}, Values: vals}); err != nil {
				t.Fatal(err)
			}
			vals[0], vals[1] = 0.875, 0.875
			if err := bc.Close(); err != nil {
				t.Fatal(err)
			}
			s := srv.Registry().Default().Estimator().Snapshot()
			if s.Sums[1] != 0.5 || s.Sums[2] != 0.25 || s.Sums[3] != -0.25 {
				t.Fatalf("collector sums %v; want [_ 0.5 0.25 -0.25]: the batch shipped the caller's reused slice", s.Sums)
			}
		})
	}
}

// TestBufferedClientBatchAllocs pins the allocations of one 64-report
// batch — staged, encoded, shipped and acknowledged, the collector's
// decode and ingest included, since the count is process-wide. A ragged
// batch (pair counts varying report to report) takes no more than a
// rectangular one.
func TestBufferedClientBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const n = 64
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startTestServer(t, p)
	rect, ragged := make([]est.Report, n), make([]est.Report, n)
	for i := range rect {
		rect[i] = est.Report{Dims: []uint32{0, 9, uint32(20 + i%7), 63}, Values: []float64{0.5, -0.5, 0.25, 1}}
		k := 1 + i%4
		ragged[i] = est.Report{Dims: rect[i].Dims[:k], Values: rect[i].Values[:k]}
	}
	for _, tc := range []struct{ v, rectMax int }{{ProtocolV1, 5}, {ProtocolV2, 5}} {
		bc, err := DialBuffered(addr, WithBatchSize(n), WithClientOptions(WithProtocolVersion(tc.v)))
		if err != nil {
			t.Fatal(err)
		}
		batch := func(reps []est.Report) float64 {
			return testing.AllocsPerRun(100, func() {
				for _, rep := range reps {
					if err := bc.Add(rep); err != nil {
						t.Fatal(err)
					}
				}
				if err := bc.Flush(); err != nil {
					t.Fatal(err)
				}
			})
		}
		r, g := batch(rect), batch(ragged)
		t.Logf("v%d: %v allocs per rectangular batch, %v per ragged batch", tc.v, r, g)
		if r > float64(tc.rectMax) {
			t.Errorf("v%d: %v allocs per rectangular %d-report batch, want ≤ %d", tc.v, r, n, tc.rectMax)
		}
		if g > r {
			t.Errorf("v%d: %v allocs per ragged %d-report batch, want ≤ %v (rectangular)", tc.v, g, n, r)
		}
		if err := bc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
