package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
)

// startHardenedServer is startTestServer with the failure knobs set
// before the accept loop starts, so configuration never races serving.
func startHardenedServer(t *testing.T, p highdim.Protocol, configure func(*Server)) (*Server, string) {
	t.Helper()
	srv := NewServer(highdim.NewAggregator(p))
	srv.Logf = t.Logf
	configure(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

// waitForStats polls the server's failure counters until cond is
// satisfied or the deadline passes.
func waitForStats(t *testing.T, srv *Server, d time.Duration, cond func(ServerStats) bool) ServerStats {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		stats := srv.Stats()
		if cond(stats) {
			return stats
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats condition not met within %v; last stats %+v", d, stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitForConn polls until the server's accept loop has registered the
// server side of the client conn c. Dial returns once the handshake
// completes, before Accept has run, so a Drain issued straight after Dial
// could otherwise see no connection at all and return at once. reaped,
// when non-nil, also ends the wait: it reports that the server has
// already registered and force-closed the conn.
func waitForConn(t *testing.T, srv *Server, c net.Conn, reaped func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		registered := false
		for sc := range srv.conns {
			if sc.RemoteAddr().String() == c.LocalAddr().String() {
				registered = true
				break
			}
		}
		srv.mu.Unlock()
		if registered || (reaped != nil && reaped()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not register conn %s within 5s", c.LocalAddr())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleTimeoutForceClosesStalledConn: a client that opens a frame
// and then goes silent must be force-closed once the idle read deadline
// trips, and counted in DeadlinesTripped.
func TestIdleTimeoutForceClosesStalledConn(t *testing.T) {
	proto, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startHardenedServer(t, proto, func(s *Server) { s.IdleTimeout = 100 * time.Millisecond })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A REPORT frame type byte with no body: the server is now blocked
	// mid-frame on a peer that will never speak again.
	if _, err := conn.Write([]byte{frameReport}); err != nil {
		t.Fatal(err)
	}

	stats := waitForStats(t, srv, 5*time.Second, func(s ServerStats) bool {
		return s.DeadlinesTripped >= 1
	})
	if stats.DeadlinesTripped != 1 {
		t.Fatalf("DeadlinesTripped = %d; want exactly 1", stats.DeadlinesTripped)
	}
	// The force-close is visible client-side too.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("stalled connection still open after idle deadline")
	}
}

// TestWriteTimeoutForceClosesUnreadingClient: a client that requests a
// reply far larger than the socket buffers and then never reads must
// trip the bounded write deadline instead of pinning the serving
// goroutine forever.
func TestWriteTimeoutForceClosesUnreadingClient(t *testing.T) {
	// 1M dimensions: the ESTIMATE reply is ~8 MB, far beyond what the
	// kernel will buffer for a non-reading peer.
	proto, err := highdim.NewProtocol(ldp.Laplace{}, 1, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startHardenedServer(t, proto, func(s *Server) { s.WriteTimeout = 200 * time.Millisecond })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{frameEstimate}); err != nil {
		t.Fatal(err)
	}
	// Never read. The server's reply flushes mid-exchange, fills the
	// socket buffers, and must hit the write deadline.
	waitForStats(t, srv, 10*time.Second, func(s ServerStats) bool {
		return s.DeadlinesTripped >= 1
	})
}

// TestDrainBoundedByStalledClient (satellite S2): Drain can only be as
// graceful as the slowest client. Without an idle deadline a stalled
// client pins Drain until its context expires; with one, the stalled
// connection is force-closed and Drain returns promptly and nil.
func TestDrainBoundedByStalledClient(t *testing.T) {
	proto, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}

	stall := func(t *testing.T, addr string) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte{frameReport}); err != nil {
			t.Fatal(err)
		}
		return conn
	}

	t.Run("no deadline: ctx bounds the wait", func(t *testing.T) {
		srv, addr := startTestServer(t, proto)
		conn := stall(t, addr)
		defer conn.Close()
		waitForConn(t, srv, conn, nil)

		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		start := time.Now()
		err := srv.Drain(ctx)
		if err != context.DeadlineExceeded {
			t.Fatalf("Drain = %v; want context.DeadlineExceeded from the stalled conn", err)
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("Drain took %v; the ctx must bound it near 300ms", elapsed)
		}
	})

	t.Run("idle deadline force-closes the straggler", func(t *testing.T) {
		srv, addr := startHardenedServer(t, proto, func(s *Server) { s.IdleTimeout = 100 * time.Millisecond })
		conn := stall(t, addr)
		defer conn.Close()
		waitForConn(t, srv, conn, func() bool { return srv.Stats().DeadlinesTripped > 0 })

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		start := time.Now()
		if err := srv.Drain(ctx); err != nil {
			t.Fatalf("Drain = %v; want nil once the idle deadline reaps the stalled conn", err)
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("Drain took %v; want prompt return after the ~100ms idle deadline", elapsed)
		}
		if stats := srv.Stats(); stats.DeadlinesTripped == 0 {
			t.Fatalf("stats = %+v; the straggler must be counted as a deadline trip", stats)
		}
	})
}

// TestClientTimeoutBoundsExchange: a client with SetTimeout against a
// server that never answers must fail the exchange with a timeout
// instead of hanging.
func TestClientTimeoutBoundsExchange(t *testing.T) {
	// A listener that accepts and then ignores the connection entirely.
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
		}
	}()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTimeout(150 * time.Millisecond)

	start := time.Now()
	_, err = cl.Counts()
	if err == nil {
		t.Fatal("Counts against a mute collector succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("Counts error = %v; want a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Counts took %v; want ~150ms", elapsed)
	}
}
