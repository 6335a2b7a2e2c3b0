package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/hdr4me/hdr4me/internal/dataset"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/metrics"
)

func TestWireReportRoundTrip(t *testing.T) {
	rep := highdim.Report{
		Dims:   []uint32{0, 3, 17},
		Values: []float64{-0.5, math.Pi, 1e-300},
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	ft, err := readFrameType(&buf)
	if err != nil || ft != frameReport {
		t.Fatalf("frame type %v, err %v", ft, err)
	}
	got, err := readReportBody(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Dims {
		if got.Dims[i] != rep.Dims[i] || got.Values[i] != rep.Values[i] {
			t.Fatalf("round trip mismatch at %d: %+v vs %+v", i, got, rep)
		}
	}
}

func TestWireRejectsMismatchedReport(t *testing.T) {
	var buf bytes.Buffer
	err := WriteReport(&buf, highdim.Report{Dims: []uint32{1}, Values: nil})
	if err == nil {
		t.Fatal("mismatched report must fail to serialize")
	}
}

func TestWireRejectsOversizedFrames(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // count = 2^32-1
	if _, err := readReportBody(&buf); err == nil {
		t.Fatal("oversized count must be rejected")
	}
	var buf2 bytes.Buffer
	buf2.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := readFloats(&buf2); err == nil {
		t.Fatal("oversized float vector must be rejected")
	}
	var buf3 bytes.Buffer
	buf3.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := readInts(&buf3); err == nil {
		t.Fatal("oversized int vector must be rejected")
	}
}

// TestReadFrameGrowsWithPayload: the served report reader and the shed
// path's drain reserve memory as payload arrives, not as the count field
// announces — a bare header claiming maxPairs entries must not make the
// collector allocate the frame it promises — and a frame that takes
// several read stages still decodes whole.
func TestReadFrameGrowsWithPayload(t *testing.T) {
	for _, ft := range []byte{frameReport, frameVecReport} {
		hdr := binary.BigEndian.AppendUint32([]byte{ft}, maxPairs)
		sc := &decodeScratch{}
		if _, err := readReport(ft, bytes.NewReader(hdr[1:]), sc); err == nil {
			t.Fatalf("frame 0x%02x: truncated frame accepted", ft)
		}
		if cap(sc.b) > 2*readStageMax {
			t.Fatalf("frame 0x%02x: a bare header reserved %d bytes", ft, cap(sc.b))
		}
		sc = &decodeScratch{}
		if err := discardBatchReports(bufio.NewReader(bytes.NewReader(hdr)), sc, 1); err == nil {
			t.Fatalf("frame 0x%02x: drain accepted a truncated frame", ft)
		}
		if cap(sc.b) > 2*readStageMax {
			t.Fatalf("frame 0x%02x: draining a bare header reserved %d bytes", ft, cap(sc.b))
		}
	}
	n := 3 * readStageMax / 12
	rep := est.Report{Dims: make([]uint32, n), Values: make([]float64, n)}
	for i := range rep.Dims {
		rep.Dims[i], rep.Values[i] = uint32(i), float64(i)/7
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := readReport(frameReport, bytes.NewReader(buf.Bytes()[1:]), &decodeScratch{})
	if err != nil || !reportsEqual(got, rep) {
		t.Fatalf("multi-stage frame: err %v, equal %t", err, reportsEqual(got, rep))
	}
}

// TestReferenceReadersGrowWithPayload: the reference decoders
// readReportBody and readVecReportBody also read as bytes arrive, so a
// bare header announcing maxPairs entries allocates about one read
// stage, not the 4–12 MiB frame it promises. The bound leaves room for
// the race detector's own allocations.
func TestReferenceReadersGrowWithPayload(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, maxPairs)
	for _, tc := range []struct {
		name string
		read func(io.Reader) (est.Report, error)
	}{{"readReportBody", readReportBody}, {"readVecReportBody", readVecReportBody}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tc.read(bytes.NewReader(hdr))
		runtime.ReadMemStats(&after)
		if err != io.EOF {
			t.Fatalf("%s: bare header: err %v, want io.EOF", tc.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4*readStageMax {
			t.Fatalf("%s: a bare header allocated %d bytes", tc.name, got)
		}
	}
}

func TestFloatsAndIntsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	xs := []float64{1, -2.5, math.Inf(1), 0}
	if err := writeFloats(&buf, xs); err != nil {
		t.Fatal(err)
	}
	got, err := readFloats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("floats mismatch: %v vs %v", got, xs)
		}
	}
	var buf2 bytes.Buffer
	is := []int64{0, -7, 1 << 40}
	if err := writeInts(&buf2, is); err != nil {
		t.Fatal(err)
	}
	goti, err := readInts(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range is {
		if goti[i] != is[i] {
			t.Fatalf("ints mismatch: %v vs %v", goti, is)
		}
	}
}

// startTestServer brings up a collector on an ephemeral port.
func startTestServer(t *testing.T, p highdim.Protocol) (*Server, string) {
	t.Helper()
	srv := NewServer(highdim.NewAggregator(p))
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func TestEndToEndCollection(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 4, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startTestServer(t, p)

	ds := dataset.Memoize(dataset.NewGaussian(3000, 6, 21))
	const users = 3000
	const conns = 8
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			client := highdim.NewClient(p, mathx.NewRNG(100).Child(uint64(c)))
			row := make([]float64, 6)
			for i := c; i < users; i += conns {
				ds.Row(i, row)
				if err := cl.Send(client.Report(row)); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	counts, err := cl.Counts()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != users*3 {
		t.Fatalf("collector saw %d pairs, want %d", total, users*3)
	}
	est, err := cl.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != 6 {
		t.Fatalf("estimate has %d dims", len(est))
	}
	mse := metrics.MSE(est, ds.TrueMean())
	// ε/m = 4/3 per dim over ~1500 reports/dim: loose sanity bound.
	if mse > 0.1 {
		t.Fatalf("networked MSE = %v, want < 0.1", mse)
	}
}

func TestServerRejectsBadReportAndStaysUp(t *testing.T) {
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
	// Out-of-range dimension → NACK but connection stays usable.
	if err := cl.Send(highdim.Report{Dims: []uint32{99}, Values: []float64{1}}); err == nil {
		t.Fatal("bad report should be rejected")
	}
	if err := cl.Send(highdim.Report{Dims: []uint32{2}, Values: []float64{0.5}}); err != nil {
		t.Fatalf("good report after rejection failed: %v", err)
	}
	est, err := cl.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est[2] != 0.5 {
		t.Fatalf("estimate = %v", est)
	}
}

func TestServerUnknownFrameClosesConn(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startTestServer(t, p)
	srv.Logf = func(string, ...any) {} // silence expected error
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.conn.Write([]byte{0x7E}); err != nil {
		t.Fatal(err)
	}
	// Server should close; subsequent estimate fails.
	if _, err := cl.Estimate(); err == nil {
		t.Fatal("connection should be closed after protocol violation")
	}
}

func TestServerCloseIdempotentAndDialFailsAfter(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(highdim.NewAggregator(p))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr.String()); err == nil {
		t.Fatal("dial should fail after close")
	}
}
