package transport

import (
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
)

// TestBatchWithEstimatorRejectedReportNACKsWithoutDesync: a batch whose
// embedded frame is wire-decodable but malformed for the estimator must
// be acknowledged with the bad report counted out of accepted — and the
// connection must stay fully usable afterwards.
func TestBatchWithEstimatorRejectedReportNACKsWithoutDesync(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 2)
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
		{Dims: []uint32{0, 1}, Values: []float64{0.5, -0.5}},
		{Dims: []uint32{1, 0}, Values: []float64{1, 1}}, // unsorted dims: estimator rejects
		{Dims: []uint32{2, 3}, Values: []float64{0.25, -0.25}},
	}
	accepted, err := cl.SendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 2 {
		t.Fatalf("accepted %d, want 2 (malformed report skipped, not fatal)", accepted)
	}

	// Not desynced: the same connection keeps serving batches and queries.
	if accepted, err = cl.SendBatch(batch[:1]); err != nil || accepted != 1 {
		t.Fatalf("follow-up batch: accepted %d, err %v", accepted, err)
	}
	counts, err := cl.Counts()
	if err != nil {
		t.Fatalf("connection desynced after mid-batch rejection: %v", err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 6 { // 3 accepted reports × m=2 pairs
		t.Fatalf("collector saw %d pairs, want 6", total)
	}
}

// TestBatchWithUndecodableEmbeddedFrameKillsConnection: an embedded
// frame type the decoder cannot size desyncs the stream by definition,
// so the server must drop the connection rather than guess.
func TestBatchWithUndecodableEmbeddedFrameKillsConnection(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startTestServer(t, p)
	srv.Logf = func(string, ...any) {}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	raw, err := CodecV1{}.AppendBatch(nil, "", 0, []est.Report{{Dims: []uint32{0}, Values: []float64{0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	raw[5] = 0x7F // corrupt the embedded frame's type byte
	cl.mu.Lock()
	_, werr := cl.bw.Write(raw)
	if werr == nil {
		werr = cl.bw.Flush()
	}
	cl.mu.Unlock()
	if werr != nil {
		t.Fatal(werr)
	}
	if _, err := cl.Counts(); err == nil {
		t.Fatal("connection must be torn down after an undecodable embedded frame")
	}
}

// TestBatchLargerThanDecodeChunk: batches beyond the pooled decoder's
// chunk bounds accumulate across several AddReports calls with an exact
// total, including rejects falling in different chunks.
func TestBatchLargerThanDecodeChunk(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startTestServer(t, p)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	n := 3*batchChunkReports + 117
	rejects := 0
	batch := make([]est.Report, n)
	for i := range batch {
		if i%500 == 250 {
			batch[i] = est.Report{Dims: []uint32{99}, Values: []float64{1}} // out of range
			rejects++
			continue
		}
		batch[i] = est.Report{Dims: []uint32{uint32(i % 8)}, Values: []float64{0.5}}
	}
	accepted, err := cl.SendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != n-rejects {
		t.Fatalf("accepted %d, want %d", accepted, n-rejects)
	}
	counts, err := cl.Counts()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != int64(n-rejects) {
		t.Fatalf("collector saw %d pairs, want %d", total, n-rejects)
	}
}

// TestDecodeScratchRetentionCap: one oversized (protocol-legal) report
// must not pin its arenas for the connection's lifetime — reset drops
// outlier capacities but keeps normal working sizes.
func TestDecodeScratchRetentionCap(t *testing.T) {
	sc := &decodeScratch{}
	sc.bytes(maxRetainBytes + 1)
	sc.growDims(maxRetainLanes + 1)
	sc.growVals(maxRetainLanes + 1)
	sc.reset()
	if cap(sc.b) != 0 || cap(sc.dims) != 0 || cap(sc.vals) != 0 {
		t.Fatalf("oversized arenas retained: b=%d dims=%d vals=%d", cap(sc.b), cap(sc.dims), cap(sc.vals))
	}
	sc.bytes(4096)
	sc.growDims(512)
	sc.growVals(512)
	sc.reset()
	if cap(sc.b) < 4096 || cap(sc.dims) < 512 || cap(sc.vals) < 512 {
		t.Fatalf("working-size arenas dropped: b=%d dims=%d vals=%d", cap(sc.b), cap(sc.dims), cap(sc.vals))
	}
}

// TestServedBatchMatchesSerialReference: a batch served over a loopback
// v1 connection must land exactly as the same reports fed one at a time
// to a fresh in-process aggregator — same accepted count, exact counts,
// bitwise-equal estimates (one connection is one stripe, whose fold is
// bitwise-identical to the serial path).
func TestServedBatchMatchesSerialReference(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]est.Report, 300)
	for i := range batch {
		d := uint32(i % 5)
		batch[i] = est.Report{Dims: []uint32{d, d + 1}, Values: []float64{0.5 + float64(i)/1000, -0.25}}
	}
	batch[7] = est.Report{Dims: []uint32{6, 7}, Values: []float64{1, 1}} // out of range

	_, addr := startTestServer(t, p)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if v := cl.ProtocolVersion(); v != ProtocolV1 {
		t.Fatalf("fresh client speaks protocol %d, want v1", v)
	}
	accepted, err := cl.SendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := cl.Counts()
	if err != nil {
		t.Fatal(err)
	}
	estimate, err := cl.Estimate()
	if err != nil {
		t.Fatal(err)
	}

	ref := highdim.NewAggregator(p)
	refAccepted := 0
	for _, rep := range batch {
		if ref.AddReport(rep) == nil {
			refAccepted++
		}
	}
	if accepted != len(batch)-1 || refAccepted != accepted {
		t.Fatalf("accepted served %d, serial %d, want %d", accepted, refAccepted, len(batch)-1)
	}
	refCounts, refEstimate := ref.Counts(), ref.Estimate()
	for j := range refCounts {
		if counts[j] != refCounts[j] {
			t.Fatalf("dim %d: served count %d != serial %d", j, counts[j], refCounts[j])
		}
	}
	if !sameVec(estimate, refEstimate) {
		t.Fatalf("served estimate %v != serial %v", estimate, refEstimate)
	}
}
