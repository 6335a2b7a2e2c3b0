package transport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
)

// BenchmarkIngest is the multi-connection ingest benchmark behind
// BENCH_ingest.json: conns connections blast pre-encoded 256-report
// BATCH frames at one loopback collector and drain the acks, so ns/op
// and allocs/op are the collector-side cost per ingested report (b.N
// counts reports; client framing is pre-paid, the client-side encode
// path has its own benchmarks: Send, SendBatch and BufferedClient).
//
// The striped variants exercise the production v1 path — zero-copy
// pooled decode plus one stripe-lock acquisition per decoded chunk, each
// connection pinned to its own stripe. The cbatch variants ship the same
// reports as v2 columnar CBATCH frames — bulk column decode straight
// into the stripe lanes. Both repeat one m = 1 report, so every CBATCH
// dims column is a single RLE run. The cbatch-d1024m32 variants ship the
// paper's shape instead: seeded (d, m) = (1024, 32) Piecewise reports,
// whose uniformly sampled dims columns are all literal groups. Every
// cell also reports wirebytes/report, the on-the-wire cost the v2 frame
// exists to shrink (scripts/benchdiff.sh and the README table consume
// the striped/cbatch ratio at m = 1).
func BenchmarkIngest(b *testing.B) {
	for _, mode := range []string{"striped", "cbatch", "cbatch-d1024m32"} {
		for _, conns := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/conns=%d", mode, conns), func(b *testing.B) {
				benchIngest(b, conns, mode)
			})
		}
	}
}

const ingestBatchSize = 1024

// ingestShape returns the collector protocol and the report pool of an
// ingest mode: one single-pair mean report (the classic m = 1 LDP report
// shape) for striped and cbatch, a batch of seeded Session.Report-shaped
// reports at (1024, 32) for cbatch-d1024m32.
func ingestShape(b *testing.B, mode string) (highdim.Protocol, []est.Report) {
	b.Helper()
	if mode == "cbatch-d1024m32" {
		p, err := highdim.NewProtocol(ldp.Piecewise{}, 0.8, 1024, 32)
		if err != nil {
			b.Fatal(err)
		}
		return p, goldenCBatchReports(b, p.D, p.M, ingestBatchSize)
	}
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	return p, []est.Report{{Dims: []uint32{7}, Values: []float64{0.5}}}
}

// encodeIngestFrame pre-encodes one batch frame of n reports cycled from
// pool — a v1 BATCH frame, or the v2 columnar CBATCH equivalent.
func encodeIngestFrame(b *testing.B, n int, cbatch bool, pool []est.Report) []byte {
	b.Helper()
	reps := make([]est.Report, n)
	for i := range reps {
		reps[i] = pool[i%len(pool)]
	}
	var codec FrameCodec = CodecV1{}
	if cbatch {
		codec = CodecV2{}
	}
	buf, err := codec.AppendBatch(nil, "", 0, reps)
	if err != nil {
		b.Fatal(err)
	}
	return buf
}

func benchIngest(b *testing.B, conns int, mode string) {
	p, pool := ingestShape(b, mode)
	cbatch := mode != "striped"
	agg := highdim.NewAggregator(p)
	srv := NewServer(agg)
	srv.Logf = func(string, ...any) {}
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })

	frame := encodeIngestFrame(b, ingestBatchSize, cbatch, pool)

	// Split b.N into whole batches per connection; conn 0 takes the
	// remainder as one short batch so exactly b.N reports are ingested.
	batches := make([]int, conns)
	rem := b.N
	fullFrames := 0
	for c := range batches {
		share := b.N / conns / ingestBatchSize
		batches[c] = share
		fullFrames += share
		rem -= share * ingestBatchSize
	}
	tail := encodeIngestFrame(b, rem, cbatch, pool) // rem < ingestBatchSize*conns + remainder; one frame is enough only if rem <= maxBatch
	if rem > maxBatch {
		b.Fatalf("remainder %d exceeds one frame", rem)
	}
	wireBytes := int64(len(frame)) * int64(fullFrames)
	if rem > 0 {
		wireBytes += int64(len(tail))
	}

	conns_ := make([]net.Conn, conns)
	for c := range conns_ {
		conn, err := net.Dial("tcp", bound.String())
		if err != nil {
			b.Fatal(err)
		}
		conns_[c] = conn
		b.Cleanup(func() { conn.Close() })
	}

	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	var accepted int64
	var accMu sync.Mutex
	for c, conn := range conns_ {
		nb := batches[c]
		withTail := c == 0 && rem > 0
		wg.Add(1)
		go func(conn net.Conn, nb int, withTail bool) {
			defer wg.Done()
			// Writer and ack-drainer run concurrently: the socket pipelines
			// frames exactly as BufferedClient does.
			total := nb
			if withTail {
				total++
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				// Coalesce several frames per socket write — the pipelining
				// a buffering client (or kernel-side Nagle) produces anyway.
				const coalesce = 8
				super := bytes.Repeat(frame, coalesce)
				for i := 0; i < nb; {
					k := min(coalesce, nb-i)
					if _, err := conn.Write(super[:k*len(frame)]); err != nil {
						b.Errorf("write: %v", err)
						return
					}
					i += k
				}
				if withTail {
					if _, err := conn.Write(tail); err != nil {
						b.Errorf("write tail: %v", err)
					}
				}
			}()
			acks := make([]byte, 5*total)
			if _, err := io.ReadFull(conn, acks); err != nil {
				b.Errorf("acks: %v", err)
				<-done
				return
			}
			<-done
			var acc int64
			for i := 0; i < total; i++ {
				if acks[5*i] != ackOK {
					b.Errorf("batch %d NACKed", i)
					return
				}
				acc += int64(uint32(acks[5*i+1])<<24 | uint32(acks[5*i+2])<<16 | uint32(acks[5*i+3])<<8 | uint32(acks[5*i+4]))
			}
			accMu.Lock()
			accepted += acc
			accMu.Unlock()
		}(conn, nb, withTail)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/s")
	b.ReportMetric(float64(wireBytes)/float64(b.N), "wirebytes/report")
	if accepted != int64(b.N) {
		b.Fatalf("accepted %d of %d reports", accepted, b.N)
	}
}
