package transport

import (
	"bufio"
	"bytes"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
)

// benchCollector brings up a loopback collector and one report to submit;
// b.N reports flow through whichever submission path the benchmark
// exercises, so ns/op is directly the per-report cost.
func benchCollector(b *testing.B) (addr string, rep est.Report) {
	b.Helper()
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 8, 2)
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(highdim.NewAggregator(p))
	srv.Logf = func(string, ...any) {}
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return bound.String(), est.Report{Dims: []uint32{1, 5}, Values: []float64{0.5, -0.25}}
}

// BenchmarkSend is the per-report baseline: one frame write and one
// blocking 1-byte ack round-trip per report.
func BenchmarkSend(b *testing.B) {
	addr, rep := benchCollector(b)
	cl, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Send(rep); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkSendBatch amortizes the syscall and the ack round-trip over
// 256-report BATCH frames.
func BenchmarkSendBatch(b *testing.B) {
	addr, rep := benchCollector(b)
	cl, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	const size = 256
	batch := make([]est.Report, size)
	for i := range batch {
		batch[i] = rep
	}
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; sent += size {
		n := min(size, b.N-sent)
		accepted, err := cl.SendBatch(batch[:n])
		if err != nil || accepted != n {
			b.Fatalf("accepted %d/%d, err %v", accepted, n, err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkBufferedClient adds the auto-batching layer with pipelined
// acks on top — the path a streaming user-side SDK takes.
func BenchmarkBufferedClient(b *testing.B) {
	addr, rep := benchCollector(b)
	bc, err := DialBuffered(addr, WithBatchSize(256))
	if err != nil {
		b.Fatal(err)
	}
	defer bc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bc.Add(rep); err != nil {
			b.Fatal(err)
		}
	}
	if err := bc.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkCBatchCodec times the CBATCH frame codec at the paper's shape:
// one frame of 1024 seeded (d, m) = (1024, 32) Piecewise reports, whose
// uniformly sampled dims columns are all literal groups. encode is the
// columnar encoder BufferedClient ships through (appendCBatchColumns);
// decode is the server's body decoder (decodeCBatchBody) after the fixed
// header. b.N counts frames; ns/report divides by the 1024 reports.
func BenchmarkCBatchCodec(b *testing.B) {
	const n, ndims = 1024, 32
	reps := goldenCBatchReports(b, 1024, ndims, n)
	dims := make([]uint32, 0, n*ndims)
	vals := make([]float64, 0, n*ndims)
	for _, rep := range reps {
		dims = append(dims, rep.Dims...)
		vals = append(vals, rep.Values...)
	}
	frame, err := appendCBatchColumns(nil, "", 0, n, ndims, ndims, dims, vals)
	if err != nil {
		b.Fatal(err)
	}
	const header = 1 + 4 + 8 + 12 // type, empty route, seq, shape
	perReport := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/report")
	}
	b.Run("encode/d=1024/m=32", func(b *testing.B) {
		buf := make([]byte, 0, len(frame))
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if buf, err = appendCBatchColumns(buf[:0], "", 0, n, ndims, ndims, dims, vals); err != nil {
				b.Fatal(err)
			}
		}
		perReport(b)
	})
	b.Run("decode/d=1024/m=32", func(b *testing.B) {
		rd := bytes.NewReader(frame)
		br := bufio.NewReaderSize(rd, 64<<10)
		sc := &decodeScratch{}
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(frame)
			br.Reset(rd)
			if _, err := br.Discard(header); err != nil {
				b.Fatal(err)
			}
			if _, _, err := decodeCBatchBody(br, sc, n, ndims, ndims); err != nil {
				b.Fatal(err)
			}
		}
		perReport(b)
	})
}
