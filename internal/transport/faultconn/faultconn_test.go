package faultconn

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// pipePair returns the two ends of an in-memory connection with the
// client side fault-wrapped.
func pipePair() (*Conn, net.Conn) {
	a, b := net.Pipe()
	return Wrap(a), b
}

// echoOnce copies one read back to the writer, for simple round trips.
func echoOnce(t *testing.T, conn net.Conn) {
	t.Helper()
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if err != nil {
		t.Errorf("echo read: %v", err)
		return
	}
	if _, err := conn.Write(buf[:n]); err != nil {
		t.Errorf("echo write: %v", err)
	}
}

func TestConnPassThrough(t *testing.T) {
	fc, peer := pipePair()
	defer fc.Close()
	defer peer.Close()

	go echoOnce(t, peer)
	if _, err := fc.Write([]byte("ping")); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 8)
	n, err := fc.Read(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("read = %q, %v; want ping", buf[:n], err)
	}
	st := fc.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Faulted != 0 {
		t.Fatalf("stats = %+v; want 1 read, 1 write, 0 faults", st)
	}
}

func TestCutAfterReads(t *testing.T) {
	fc, peer := pipePair()
	defer fc.Close()
	defer peer.Close()
	fc.CutAfterReads(2)

	go func() {
		for range 2 {
			peer.Write([]byte("x"))
		}
	}()
	buf := make([]byte, 1)
	for i := range 2 {
		if _, err := fc.Read(buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	_, err := fc.Read(buf)
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Op != "read" {
		t.Fatalf("third read error = %v; want *FaultError on read", err)
	}
	// Writes must fail too once the connection is cut.
	if _, err := fc.Write([]byte("y")); !errors.As(err, &fe) {
		t.Fatalf("write after cut = %v; want *FaultError", err)
	}
	// The peer sees the close as a real connection failure.
	if _, err := peer.Read(buf); err == nil {
		t.Fatal("peer read succeeded after cut; want failure")
	}
}

func TestCutAfterWrites(t *testing.T) {
	fc, peer := pipePair()
	defer fc.Close()
	defer peer.Close()
	fc.CutAfterWrites(1)

	go io.Copy(io.Discard, peer)
	if _, err := fc.Write([]byte("ok")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	_, err := fc.Write([]byte("boom"))
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Op != "write" {
		t.Fatalf("second write error = %v; want *FaultError on write", err)
	}
}

func TestFaultErrorIsNotTimeout(t *testing.T) {
	fc, peer := pipePair()
	defer peer.Close()
	fc.Cut()
	_, err := fc.Read(make([]byte, 1))
	if err == nil {
		t.Fatal("read after Cut succeeded")
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("injected fault %v reports Timeout(); must look like a reset, not a deadline", err)
	}
	if !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("error text %q does not identify the injection", err)
	}
}

func TestStallAndUnstall(t *testing.T) {
	fc, peer := pipePair()
	defer fc.Close()
	defer peer.Close()
	fc.Stall()

	done := make(chan error, 1)
	go func() {
		_, err := fc.Write([]byte("late"))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("write completed during stall: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	go echoOnce(t, peer)
	fc.Unstall()
	if err := <-done; err != nil {
		t.Fatalf("write after unstall: %v", err)
	}
	if _, err := fc.Read(make([]byte, 8)); err != nil {
		t.Fatalf("read echo after unstall: %v", err)
	}
	if st := fc.Stats(); st.Stalled == 0 {
		t.Fatalf("stats = %+v; want Stalled > 0", st)
	}
}

func TestPartialWrites(t *testing.T) {
	fc, peer := pipePair()
	defer fc.Close()
	defer peer.Close()
	fc.SetPartialWrites(3)

	var got bytes.Buffer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 16)
		for got.Len() < 10 {
			n, err := peer.Read(buf)
			got.Write(buf[:n])
			if err != nil {
				return
			}
		}
	}()

	// Drive the short-write loop by hand, as bufio.Writer would.
	payload := []byte("0123456789")
	for off := 0; off < len(payload); {
		n, err := fc.Write(payload[off:])
		off += n
		if err != nil && !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("write at %d: %v", off, err)
		}
		if n == 0 {
			t.Fatal("write made no progress")
		}
	}
	wg.Wait()
	if got.String() != "0123456789" {
		t.Fatalf("peer got %q; want full payload despite partial writes", got.String())
	}
	if st := fc.Stats(); st.ShortOps == 0 {
		t.Fatalf("stats = %+v; want ShortOps > 0", st)
	}
}

func TestLatency(t *testing.T) {
	fc, peer := pipePair()
	defer fc.Close()
	defer peer.Close()
	fc.SetLatency(30 * time.Millisecond)

	go echoOnce(t, peer)
	start := time.Now()
	if _, err := fc.Write([]byte("slow")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("latency-armed write returned in %v; want >= ~30ms", elapsed)
	}
	if _, err := fc.Read(make([]byte, 8)); err != nil {
		t.Fatalf("read echo: %v", err)
	}
	if st := fc.Stats(); st.Delayed == 0 {
		t.Fatalf("stats = %+v; want Delayed > 0", st)
	}
}

func TestListenerAppliesPlan(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	fl := &Listener{Listener: ln, Plan: func(c *Conn) { c.CutAfterReads(1) }}
	defer fl.Close()

	go func() {
		conn, err := fl.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 8)
		if _, err := conn.Read(buf); err != nil {
			return // first read allowed; bail only on the injected cut
		}
		conn.Read(buf) // second read must hit the plan's cut
	}()

	conn, err := net.Dial("tcp", fl.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.Write([]byte("a"))
	conn.Write([]byte("b"))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("client read succeeded; want failure after server-side cut")
	}
}
