package transport

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/transport/faultconn"
	"github.com/hdr4me/hdr4me/internal/transport/faultconn/proxy"
)

// reconnectReports builds a deterministic stream of n in-range reports
// over d dimensions, so two ingestion runs are comparable bit for bit.
func reconnectReports(n, d int) []est.Report {
	reps := make([]est.Report, n)
	for i := range reps {
		reps[i] = est.Report{
			Dims:   []uint32{uint32(i % d)},
			Values: []float64{math.Sin(float64(i)) / 2},
		}
	}
	return reps
}

// TestReconnectExactlyOnceCounts is the tentpole's proof obligation: a
// client whose connection is severed twice mid-stream must, after
// auto-reconnecting and replaying, leave the collector with exactly the
// same Counts as an identical run over a never-failing connection — no
// report lost, none double-counted.
func TestReconnectExactlyOnceCounts(t *testing.T) {
	const (
		nReports = 8000
		dims     = 8
		batch    = 64
	)
	proto, err := highdim.NewProtocol(ldp.Laplace{}, 1, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	reps := reconnectReports(nReports, dims)

	// Flaky run: client → proxy → collector, with the proxy pulling the
	// cable twice mid-stream.
	srvFlaky, addrFlaky := startTestServer(t, proto)
	px, err := proxy.New(addrFlaky)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	bc, err := DialBuffered(px.Addr(), WithBatchSize(batch), WithReconnect(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if i == 3000 || i == 6000 {
			px.CutLinks()
		}
		if err := bc.Add(rep); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	if err := bc.Close(); err != nil {
		t.Fatalf("Close after flaky run: %v", err)
	}
	if got := bc.Sent(); got != nReports {
		t.Fatalf("Sent() = %d; want %d", got, nReports)
	}
	if got := bc.Accepted(); got != nReports {
		t.Fatalf("Accepted() = %d; want %d — lost or double-counted acks", got, nReports)
	}
	if got := bc.Reconnects(); got < 2 {
		t.Fatalf("Reconnects() = %d; want >= 2 (the proxy cut the cable twice)", got)
	}
	if bc.Replayed() == 0 {
		t.Fatal("Replayed() = 0; cuts mid-pipeline must have forced replays")
	}

	// Reference run: same reports, same batching, healthy connection.
	srvClean, addrClean := startTestServer(t, proto)
	bcClean, err := DialBuffered(addrClean, WithBatchSize(batch), WithReconnect(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if err := bcClean.Add(rep); err != nil {
			t.Fatalf("clean Add %d: %v", i, err)
		}
	}
	if err := bcClean.Close(); err != nil {
		t.Fatalf("Close after clean run: %v", err)
	}

	countsFlaky := srvFlaky.Registry().Default().Estimator().Counts()
	countsClean := srvClean.Registry().Default().Estimator().Counts()
	if !reflect.DeepEqual(countsFlaky, countsClean) {
		t.Fatalf("Counts diverge after reconnects:\nflaky: %v\nclean: %v", countsFlaky, countsClean)
	}

	// The estimate sums must agree too — not bitwise (reports land in
	// different accumulation lanes after a reconnect), but well within
	// float round-off.
	sum := func(xs []float64) (s float64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	sf := sum(srvFlaky.Registry().Default().Estimator().Estimate())
	sc := sum(srvClean.Registry().Default().Estimator().Estimate())
	if math.Abs(sf-sc) > 1e-9 {
		t.Fatalf("estimate sums diverge: flaky %v vs clean %v", sf, sc)
	}

	if stats := srvFlaky.Stats(); stats.SessionsOpened != 1 || stats.SessionsResumed < 2 {
		t.Fatalf("server stats = %+v; want 1 session opened, >= 2 resumed", stats)
	}
}

// TestSequencedBatchDedupe drives the (session, sequence) grammar over
// the raw client internals, once per batch grammar — v1 0x06 and v2
// CBATCH — and both must answer identically: a replayed sequence is
// acked from the record without re-applying, a sequence gap NACKs
// retryable, a batch routed to a missing query consumes its sequence
// slot and replies ackErr, and a MaxInflight shed NACKs retryable and
// applies nothing.
func TestSequencedBatchDedupe(t *testing.T) {
	type reply struct {
		status byte
		acc    int
	}
	steps := []struct {
		name  string
		seq   uint64
		query string
		shed  bool // hold the in-flight gate so admission fails
		want  reply
	}{
		{name: "apply", seq: 1, want: reply{ackOK, 10}},
		{name: "replay", seq: 1, want: reply{ackOK, 10}},
		{name: "gap", seq: 3, want: reply{ackRetry, 0}},
		{name: "in order", seq: 2, want: reply{ackOK, 10}},
		{name: "missing query", seq: 3, query: "ghost", want: reply{ackErr, 0}},
		{name: "missing query replay", seq: 3, query: "ghost", want: reply{ackOK, 0}},
		{name: "shed", seq: 4, shed: true, want: reply{ackRetry, 0}},
		{name: "after shed", seq: 4, want: reply{ackOK, 10}},
	}
	type outcome struct {
		replies []reply
		total   int64
		stats   ServerStats
	}
	run := func(t *testing.T, ver int) outcome {
		proto, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(highdim.NewAggregator(proto))
		srv.Logf = t.Logf
		srv.MaxInflight = 1000
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cl, err := Dial(addr.String(), WithProtocolVersion(ver))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()

		info, err := cl.Hello(0)
		if err != nil {
			t.Fatalf("Hello: %v", err)
		}
		if info.Token == 0 || info.LastSeq != 0 || info.Accepted != 0 || info.Proto != ver {
			t.Fatalf("fresh session info = %+v; want nonzero token, zero progress, v%d", info, ver)
		}

		reps := reconnectReports(10, 4)
		var out outcome
		for _, st := range steps {
			if st.shed {
				srv.inflight.Add(995) // another batch holds the gate: 995 + 10 > 1000
			}
			cl.mu.Lock()
			n, err := cl.writeBatchLocked(st.query, st.seq, reps, true)
			if err != nil {
				t.Fatalf("%s: send seq %d: %v", st.name, st.seq, err)
			}
			status, acc, err := cl.readBatchStatusLocked(n)
			cl.mu.Unlock()
			if err != nil {
				t.Fatalf("%s: read ack seq %d: %v", st.name, st.seq, err)
			}
			if st.shed {
				srv.inflight.Add(-995)
			}
			if got := (reply{status, acc}); got != st.want {
				t.Errorf("%s (seq %d): reply %+v; want %+v", st.name, st.seq, got, st.want)
			}
			out.replies = append(out.replies, reply{status, acc})
		}
		for _, c := range srv.Registry().Default().Estimator().Counts() {
			out.total += c
		}
		if out.total != 30 {
			t.Errorf("collector holds %d reports; want 30 (a replay, gap, ghost or shed leaked into state)", out.total)
		}
		out.stats = srv.Stats()
		if out.stats.BatchesDeduped != 2 {
			t.Errorf("BatchesDeduped = %d; want 2", out.stats.BatchesDeduped)
		}
		if out.stats.BatchesShed != 2 {
			t.Errorf("BatchesShed = %d; want 2 (the gap and the shed)", out.stats.BatchesShed)
		}
		return out
	}
	var v1, v2 outcome
	t.Run("v1-batch", func(t *testing.T) { v1 = run(t, ProtocolV1) })
	t.Run("v2-cbatch", func(t *testing.T) { v2 = run(t, ProtocolV2) })
	if v1.stats.CBatches != 0 || v2.stats.CBatches != uint64(len(steps)) {
		t.Errorf("CBatches = %d (v1), %d (v2); want 0 and %d", v1.stats.CBatches, v2.stats.CBatches, len(steps))
	}
	// Beyond the grammar's own counters, the two runs must match exactly.
	v1.stats.CBatches, v2.stats.CBatches = 0, 0
	v1.stats.HellosV2, v2.stats.HellosV2 = 0, 0
	if !reflect.DeepEqual(v1, v2) {
		t.Fatalf("grammars diverge:\nv1: %+v\nv2: %+v", v1, v2)
	}
}

// TestHelloResumeCarriesProgress proves a successor connection inherits
// the session's applied prefix and cumulative accepted count — the
// reconciliation a reconnecting client's accounting rests on.
func TestHelloResumeCarriesProgress(t *testing.T) {
	proto, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startTestServer(t, proto)

	cl1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cl1.Hello(0)
	if err != nil {
		t.Fatalf("Hello(0): %v", err)
	}
	reps := reconnectReports(7, 4)
	cl1.mu.Lock()
	if _, err := cl1.writeBatchLocked("", 1, reps, true); err != nil {
		cl1.mu.Unlock()
		t.Fatalf("send: %v", err)
	}
	if _, _, err := cl1.readBatchStatusLocked(len(reps)); err != nil {
		cl1.mu.Unlock()
		t.Fatalf("ack: %v", err)
	}
	cl1.mu.Unlock()
	cl1.Close() // crash

	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	resumed, err := cl2.Hello(info.Token)
	if err != nil {
		t.Fatalf("resume Hello: %v", err)
	}
	if resumed.Token != info.Token || resumed.LastSeq != 1 || resumed.Accepted != 7 {
		t.Fatalf("resumed info = %+v; want token %#x, lastSeq 1, accepted 7", resumed, info.Token)
	}
	// Sequencing continues where the dead connection left off.
	cl2.mu.Lock()
	if _, err := cl2.writeBatchLocked("", 2, reps, true); err != nil {
		cl2.mu.Unlock()
		t.Fatalf("send seq 2: %v", err)
	}
	status, acc, err := cl2.readBatchStatusLocked(len(reps))
	cl2.mu.Unlock()
	if err != nil || status != ackOK || acc != 7 {
		t.Fatalf("seq 2 after resume: status %#x acc %d err %v; want applied 7", status, acc, err)
	}
}

// TestHelloUnknownTokenRejected: a token the collector does not know
// (expired, swept, or fabricated) must be rejected fatally, not
// silently given a fresh session the client would misinterpret.
func TestHelloUnknownTokenRejected(t *testing.T) {
	proto, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startTestServer(t, proto)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Hello(0xdeadbeef)
	if !errors.Is(err, ErrSessionRejected) {
		t.Fatalf("Hello(unknown token) = %v; want ErrSessionRejected", err)
	}
	// The rejection is a whole exchange: the connection stays usable.
	if _, err := cl.Hello(0); err != nil {
		t.Fatalf("Hello(0) after rejection: %v", err)
	}
}

// TestSessionTakeoverDisplacesOldConnection: resuming a session from a
// second connection must close the first, so a zombie connection cannot
// race the successor's replay.
func TestSessionTakeoverDisplacesOldConnection(t *testing.T) {
	proto, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startTestServer(t, proto)

	cl1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	info, err := cl1.Hello(0)
	if err != nil {
		t.Fatal(err)
	}

	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.Hello(info.Token); err != nil {
		t.Fatalf("takeover Hello: %v", err)
	}

	// The displaced connection was closed server-side; its next exchange
	// fails instead of corrupting the successor's session.
	cl1.SetTimeout(2 * time.Second)
	if _, err := cl1.Counts(); err == nil {
		t.Fatal("displaced connection still serving; want server-side close")
	}
}

// TestBufferedClientRecoversFromInjectedCut exercises the reconnect
// path with a faultconn-injected failure on the client's own socket
// (rather than a proxy cut): the cut batch is replayed over a fresh
// dial and nothing is double-counted.
func TestBufferedClientRecoversFromInjectedCut(t *testing.T) {
	const (
		nReports = 500
		dims     = 4
		batch    = 50
	)
	proto, err := highdim.NewProtocol(ldp.Laplace{}, 1, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startTestServer(t, proto)

	raw, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := faultconn.Wrap(raw.conn)
	bc := NewBufferedClient(NewClient(fc),
		WithBatchSize(batch),
		WithReconnect(func() (*Client, error) { return Dial(addr) }))
	// Let the session handshake and the first two batches through, then
	// fail the socket on a later write.
	fc.CutAfterWrites(3)

	for i, rep := range reconnectReports(nReports, dims) {
		if err := bc.Add(rep); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	if err := bc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := bc.Accepted(); got != nReports {
		t.Fatalf("Accepted() = %d; want %d", got, nReports)
	}
	if bc.Reconnects() == 0 {
		t.Fatal("Reconnects() = 0; the injected cut must have forced a redial")
	}
	var total int64
	for _, c := range srv.Registry().Default().Estimator().Counts() {
		total += c
	}
	if total != nReports {
		t.Fatalf("collector holds %d reports; want exactly %d", total, nReports)
	}
}
