package transport

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
)

// TestServerSurvivesTruncatedFrame sends a report header promising more
// pairs than the client delivers, then disconnects. The server must drop
// the connection without corrupting aggregator state or crashing, and keep
// serving new clients.
func TestServerSurvivesTruncatedFrame(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(highdim.NewAggregator(p))
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	// Frame type REPORT, count=100, then nothing.
	conn.Write([]byte{0x01, 0, 0, 0, 100})
	conn.Close()
	time.Sleep(20 * time.Millisecond)

	// Server must still accept and serve.
	cl, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Send(highdim.Report{Dims: []uint32{1}, Values: []float64{0.5}}); err != nil {
		t.Fatalf("server unusable after truncated frame: %v", err)
	}
	counts, err := cl.Counts()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 1 {
		t.Fatalf("truncated frame leaked into counts: %v", counts)
	}
}

// TestServerSurvivesGarbageBytes feeds random bytes; the connection dies,
// the server does not.
func TestServerSurvivesGarbageBytes(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(highdim.NewAggregator(p))
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i := 0; i < 5; i++ {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x42})
		conn.Close()
	}
	time.Sleep(20 * time.Millisecond)
	cl, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Estimate(); err != nil {
		t.Fatalf("server unusable after garbage: %v", err)
	}
}

// TestEstimateWhileSending interleaves estimate queries with report
// submissions from other connections — the aggregator lock must keep
// responses consistent (length d, no panic).
func TestEstimateWhileSending(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(highdim.NewAggregator(p))
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		cl, err := Dial(addr.String())
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		for i := 0; i < 300; i++ {
			rep := highdim.Report{Dims: []uint32{uint32(i % 8)}, Values: []float64{0.1}}
			if err := cl.Send(rep); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	cl, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 50; i++ {
		est, err := cl.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		if len(est) != 8 {
			t.Fatalf("estimate length %d mid-stream", len(est))
		}
	}
	<-done
}

// TestTruncatedReportFrameIsLogged: a peer that closes inside a report
// frame is logged as a truncated frame ("unexpected EOF") — also when it
// closes exactly at one of readFrame's read-stage boundaries, where the
// stage read sees no bytes at all — never passed off as a clean close.
func TestTruncatedReportFrameIsLogged(t *testing.T) {
	p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{
		{0x01, 0, 0, 0, 2},    // header complete, no pair bytes
		{0x01, 0, 0, 0, 2, 0}, // one pair byte
	} {
		srv := NewServer(highdim.NewAggregator(p))
		logs := make(chan string, 4)
		srv.Logf = func(format string, args ...any) { logs <- fmt.Sprintf(format, args...) }
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(frame)
		conn.Close()
		select {
		case line := <-logs:
			if !strings.Contains(line, "unexpected EOF") {
				t.Errorf("% x then close: logged %q, want an unexpected EOF", frame, line)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("% x then close: nothing logged", frame)
		}
		srv.Close()
	}
}
