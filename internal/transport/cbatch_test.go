package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
)

// newMeanServer boots a mean-family collector on loopback.
func newCBatchServer(t *testing.T, d int) (*Server, *highdim.Aggregator, string) {
	t.Helper()
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	agg := highdim.NewAggregator(p)
	srv := NewServer(agg)
	srv.Logf = func(string, ...any) {}
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, agg, bound.String()
}

// TestMixedProtocolClientsInterleaved: v1-pinned and v2-pinned clients
// hammer the same collector concurrently; every report must land
// exactly once regardless of grammar, and the server's stats must show
// both the v2 negotiations and the CBATCH traffic.
func TestMixedProtocolClientsInterleaved(t *testing.T) {
	srv, agg, addr := newCBatchServer(t, 16)

	const (
		perClient = 600
		chunk     = 50
	)
	vers := []int{ProtocolV1, ProtocolV2, ProtocolV1, ProtocolV2}
	var wg sync.WaitGroup
	for i, ver := range vers {
		wg.Add(1)
		go func(i, ver int) {
			defer wg.Done()
			c, err := Dial(addr, WithProtocolVersion(ver))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer c.Close()
			reps := make([]est.Report, chunk)
			for j := range reps {
				reps[j] = est.Report{Dims: []uint32{uint32(i)}, Values: []float64{0.5}}
			}
			sent := 0
			for sent < perClient {
				acc, err := c.SendBatch(reps)
				if err != nil {
					t.Errorf("client %d (v%d): %v", i, ver, err)
					return
				}
				sent += acc
			}
			if sent != perClient {
				t.Errorf("client %d (v%d): accepted %d; want %d", i, ver, sent, perClient)
			}
			if got := c.ProtocolVersion(); got != ver {
				t.Errorf("client %d: ProtocolVersion() = %d; want %d", i, got, ver)
			}
		}(i, ver)
	}
	wg.Wait()

	counts := agg.Counts()
	for i := range vers {
		if counts[i] != perClient {
			t.Errorf("dimension %d: %d reports; want %d", i, counts[i], perClient)
		}
	}
	stats := srv.Stats()
	if stats.CBatches == 0 {
		t.Error("no CBATCH frames counted despite v2 clients")
	}
	if stats.HellosV2 < 2 {
		t.Errorf("HellosV2 = %d; want >= 2 (one per v2 client)", stats.HellosV2)
	}
	if stats.ProtocolMax != ProtocolMax {
		t.Errorf("ProtocolMax = %d; want %d", stats.ProtocolMax, ProtocolMax)
	}
}

// TestClientNegotiate pins the negotiation contract: a fresh client is
// un-negotiated (reports v1), Negotiate lands on the server's maximum,
// and the result is cached.
func TestClientNegotiate(t *testing.T) {
	_, _, addr := newCBatchServer(t, 4)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.ProtocolVersion(); got != ProtocolV1 {
		t.Fatalf("pre-negotiation ProtocolVersion() = %d; want %d", got, ProtocolV1)
	}
	ver, err := c.Negotiate()
	if err != nil {
		t.Fatal(err)
	}
	if ver != ProtocolMax {
		t.Fatalf("Negotiate() = %d; want %d", ver, ProtocolMax)
	}
	if got := c.ProtocolVersion(); got != ProtocolMax {
		t.Fatalf("post-negotiation ProtocolVersion() = %d; want %d", got, ProtocolMax)
	}
	if ver2, err := c.Negotiate(); err != nil || ver2 != ver {
		t.Fatalf("repeat Negotiate() = (%d, %v); want cached (%d, nil)", ver2, err, ver)
	}
}

// TestBufferedClientColumnarSession: a reconnect-mode BufferedClient
// negotiates v2 on its session HELLO and ships sequenced CBATCH frames;
// the collector must account every report exactly once.
func TestBufferedClientColumnarSession(t *testing.T) {
	srv, agg, addr := newCBatchServer(t, 8)
	bc, err := DialBuffered(addr, WithBatchSize(64), WithReconnect(nil))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		if err := bc.Add(est.Report{Dims: []uint32{uint32(i % 8)}, Values: []float64{0.25}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bc.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := bc.c.ProtocolVersion(); got != ProtocolV2 {
		t.Fatalf("session client negotiated v%d; want v%d", got, ProtocolV2)
	}
	if got := bc.Accepted(); got != n {
		t.Fatalf("Accepted() = %d; want %d", got, n)
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range agg.Counts() {
		total += c
	}
	if total != n {
		t.Fatalf("collector accumulated %d reports; want %d", total, n)
	}
	if stats := srv.Stats(); stats.CBatches == 0 {
		t.Error("no CBATCH frames counted for a negotiated session pipeline")
	}
}

// TestBufferedClientShapeSpill: a shape break mid-batch makes the staged
// batch ragged, so it ships whole as a 0x06 BATCH even on v2; the
// collector's books must be identical under either protocol pin (the
// estimator rejects the off-shape reports itself — m=1 here — which is
// exactly the skip semantics both grammars must agree on).
func TestBufferedClientShapeSpill(t *testing.T) {
	const n = 99 // 66 single-pair reports, 33 two-pair shape-breakers
	for _, ver := range []int{ProtocolV1, ProtocolV2} {
		_, agg, addr := newCBatchServer(t, 8)
		bc, err := DialBuffered(addr, WithBatchSize(16),
			WithClientOptions(WithProtocolVersion(ver)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			rep := est.Report{Dims: []uint32{uint32(i % 8)}, Values: []float64{0.5}}
			if i%3 == 2 { // every third report breaks the rectangle
				rep = est.Report{Dims: []uint32{uint32(i % 8), uint32((i + 1) % 8)}, Values: []float64{0.5, -0.5}}
			}
			if err := bc.Add(rep); err != nil {
				t.Fatalf("v%d: %v", ver, err)
			}
		}
		if err := bc.Close(); err != nil {
			t.Fatalf("v%d: %v", ver, err)
		}
		if got := bc.Sent(); got != n {
			t.Fatalf("v%d: Sent() = %d; want %d", ver, got, n)
		}
		want := int64(n - n/3) // the m=1 estimator skips the two-pair reports
		if got := bc.Accepted(); got != want {
			t.Fatalf("v%d: Accepted() = %d; want %d", ver, got, want)
		}
		var total int64
		for _, c := range agg.Counts() {
			total += c
		}
		if total != want {
			t.Fatalf("v%d: collector accumulated %d pairs; want %d", ver, total, want)
		}
	}
}

// TestCBatchRejectsRoutedPrefix: the v2 frame carries its route
// in-frame, so a SELECT-prefixed CBATCH must be rejected as a grammar
// error rather than silently re-routed.
func TestCBatchRejectsRoutedPrefix(t *testing.T) {
	_, _, addr := newCBatchServer(t, 4)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frame, err := CodecV2{}.AppendBatch(nil, "", 0, []est.Report{{Dims: []uint32{1}, Values: []float64{0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	werr := func() error {
		if err := writeSelect(c.bw, est.DefaultName); err != nil {
			return err
		}
		return c.writeEncodedLocked(frame)
	}()
	c.mu.Unlock()
	if werr != nil {
		t.Fatal(werr)
	}
	if _, err := c.SendBatch([]est.Report{{Dims: []uint32{1}, Values: []float64{0.5}}}); err == nil {
		t.Fatal("connection survived a routed CBATCH; want it torn down")
	} else if !strings.Contains(err.Error(), "EOF") && !strings.Contains(err.Error(), "closed") && !strings.Contains(err.Error(), "reset") {
		t.Logf("connection failed as expected: %v", err)
	}
}

// TestV2PinNegotiatesOnEveryBatchEntryPoint: a fresh client pinned to
// v2 must negotiate before its first batch whichever entry point ships
// it, so every one of them lands on v2 and ships a CBATCH frame.
func TestV2PinNegotiatesOnEveryBatchEntryPoint(t *testing.T) {
	reps := []est.Report{{Dims: []uint32{1}, Values: []float64{0.5}}}
	for _, tc := range []struct {
		name string
		send func(c *Client) (int, error)
	}{
		{"SendBatch", func(c *Client) (int, error) { return c.SendBatch(reps) }},
		{"SendBatchContext", func(c *Client) (int, error) { return c.SendBatchContext(context.Background(), reps) }},
		{"Query.SendBatch", func(c *Client) (int, error) { return c.Query(est.DefaultName).SendBatch(reps) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _, addr := newCBatchServer(t, 4)
			c, err := Dial(addr, WithProtocolVersion(ProtocolV2))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if acc, err := tc.send(c); err != nil || acc != 1 {
				t.Fatalf("send = (%d, %v); want (1, nil)", acc, err)
			}
			if got := c.ProtocolVersion(); got != ProtocolV2 {
				t.Errorf("ProtocolVersion() = %d; want %d", got, ProtocolV2)
			}
			if got := srv.Stats().CBatches; got != 1 {
				t.Errorf("CBatches = %d; want 1", got)
			}
		})
	}
}

// TestCBatchDecodeGrowsWithPayload: decodeCBatchBody reserves its arenas
// only as the bytes that fill them arrive. A bare header announcing a
// maximal batch must reserve no dims arena; 64 run columns (512 bytes)
// followed by EOF must reserve no more than one chunk of values. A batch
// whose values span several chunks still decodes whole.
func TestCBatchDecodeGrowsWithPayload(t *testing.T) {
	const n, ndims, nvals = maxBatch, 64, 64
	if err := checkCBatchShape(n, ndims, nvals); err != nil {
		t.Fatal(err)
	}
	sc := &decodeScratch{}
	if _, _, err := decodeCBatchBody(bufio.NewReader(bytes.NewReader(nil)), sc, n, ndims, nvals); err == nil {
		t.Fatal("a bare header decoded")
	}
	if cap(sc.dims) != 0 || cap(sc.vals) != 0 {
		t.Fatalf("a bare header reserved %d dims and %d values", cap(sc.dims), cap(sc.vals))
	}
	run := appendRLEColumn(nil, make([]uint32, n), 1, n) // one run of n zero deltas
	var cols []byte
	for c := 0; c < ndims; c++ {
		cols = binary.BigEndian.AppendUint32(cols, uint32(len(run)))
		cols = append(cols, run...)
	}
	if len(cols) != 512 {
		t.Fatalf("run columns take %d bytes; want 512", len(cols))
	}
	sc = &decodeScratch{}
	if _, _, err := decodeCBatchBody(bufio.NewReader(bytes.NewReader(cols)), sc, n, ndims, nvals); err == nil {
		t.Fatal("columns without values decoded")
	}
	if cap(sc.vals) > cbatchValueChunk/8 {
		t.Fatalf("columns without values reserved %d values", cap(sc.vals))
	}

	const rows = 3 * cbatchValueChunk / 8 / 2
	dims, vals := make([]uint32, rows*2), make([]float64, rows*2)
	for i := range dims {
		dims[i], vals[i] = uint32(i), float64(i)/7
	}
	frame, err := appendCBatchColumns(nil, "", 0, rows, 2, 2, dims, vals)
	if err != nil {
		t.Fatal(err)
	}
	const header = 1 + 4 + 8 + 12 // type, empty route, seq, shape
	gotDims, gotVals, err := decodeCBatchBody(bufio.NewReader(bytes.NewReader(frame[header:])), &decodeScratch{}, rows, 2, 2)
	if err != nil || !slices.Equal(gotDims, dims) || !slices.Equal(gotVals, vals) {
		t.Fatalf("multi-chunk body: err %v, dims equal %t, values equal %t",
			err, slices.Equal(gotDims, dims), slices.Equal(gotVals, vals))
	}
}

// TestV1DecodeBatchBareHeaderReservesLittle: the v1 batch decoder must
// not size its report slice from the untrusted count field. A bare
// header announcing maxBatch reports, then EOF, reserves less than
// 64 KiB (sizing from the count reserved ~3 MiB).
func TestV1DecodeBatchBareHeaderReservesLittle(t *testing.T) {
	hdr := []byte{frameBatch, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[1:], maxBatch)
	rd := bytes.NewReader(hdr)
	br := bufio.NewReader(rd)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		rd.Reset(hdr)
		br.Reset(rd)
		if _, _, _, err := (CodecV1{}).DecodeBatch(br, false); err == nil {
			t.Fatal("a bare batch header decoded without error")
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 64<<10 {
		t.Fatalf("bare header of %d reports reserved %d bytes per decode, want < 64 KiB", maxBatch, perRun)
	}
}
