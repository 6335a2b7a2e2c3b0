package proxy

import (
	"io"
	"net"
	"testing"
	"time"
)

func TestProxyRelayAndCut(t *testing.T) {
	// Upstream echo server.
	up, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer up.Close()
	go func() {
		for {
			conn, err := up.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn)
			}()
		}
	}()

	p, err := New(up.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	dial := func() net.Conn {
		conn, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatalf("dial proxy: %v", err)
		}
		return conn
	}
	roundTrip := func(conn net.Conn, msg string) error {
		if _, err := conn.Write([]byte(msg)); err != nil {
			return err
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(conn, buf); err != nil {
			return err
		}
		if string(buf) != msg {
			t.Fatalf("echo = %q; want %q", buf, msg)
		}
		return nil
	}

	conn := dial()
	if err := roundTrip(conn, "hello"); err != nil {
		t.Fatalf("relay round trip: %v", err)
	}
	p.CutLinks()
	if roundTrip(conn, "dead") == nil {
		t.Fatal("round trip succeeded on a cut link")
	}
	conn.Close()

	// The proxy address still works for fresh connections.
	conn2 := dial()
	defer conn2.Close()
	if err := roundTrip(conn2, "again"); err != nil {
		t.Fatalf("post-cut round trip: %v", err)
	}
}
