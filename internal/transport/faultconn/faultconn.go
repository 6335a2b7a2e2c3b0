// Package faultconn injects programmable network faults — connection
// resets, stalls, partial writes, latency — into net.Conn and
// net.Listener values, so transport failure handling is exercised by
// deterministic unit tests instead of waiting for real networks to
// misbehave.
//
// Two layers compose:
//
//   - Conn wraps one net.Conn and fails it on command: cut it after a
//     counted number of reads or writes (or immediately), stall it so
//     every I/O blocks until released, truncate writes, or delay each
//     operation by a fixed latency.
//   - Listener wraps a net.Listener and applies a caller-supplied plan
//     to each accepted connection, so a stock server under test serves
//     faulty connections without knowing it.
//
// The coarse-grained "pull the cable" fault — a TCP relay between real
// endpoints that severs every link on command — lives in the proxy
// subpackage, which programs outside the tests import too.
//
// Injected failures surface as *FaultError, which deliberately is NOT a
// net.Error timeout: code that special-cases timeouts (idle-deadline
// accounting, retry heuristics) must see an injected reset as a hard
// connection failure, exactly like a real ECONNRESET.
package faultconn

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// FaultError is the error every injected fault returns. It is a plain
// connection failure: Timeout() is absent on purpose so nothing
// mistakes an injected reset for a deadline trip.
type FaultError struct {
	Op string // "read", "write", or "cut"
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("faultconn: injected fault on %s", e.Op)
}

// Stats counts the operations a Conn has passed through or failed.
type Stats struct {
	Reads    int64 // successful (possibly shortened) reads
	Writes   int64 // successful (possibly partial) writes
	Faulted  int64 // operations failed by injection
	Stalled  int64 // operations that blocked on an active stall
	Delayed  int64 // operations delayed by SetLatency
	ShortOps int64 // writes truncated by SetPartialWrites
}

// Conn wraps a net.Conn with programmable faults. The zero fault plan
// passes everything through untouched; arm faults before or during
// traffic from any goroutine.
type Conn struct {
	inner net.Conn

	mu            sync.Mutex
	cutAfterReads int64 // fail reads once this many have succeeded (-1: off)
	cutAfterWrite int64 // fail writes once this many have succeeded (-1: off)
	cut           bool  // every operation fails immediately
	latency       time.Duration
	partialMax    int // cap each write at this many bytes (0: off)
	stall         chan struct{}
	stats         Stats
}

// Wrap returns c with no faults armed.
func Wrap(c net.Conn) *Conn {
	return &Conn{inner: c, cutAfterReads: -1, cutAfterWrite: -1}
}

// CutAfterReads arms the connection to fail every read after n more
// reads have succeeded. The underlying connection is closed on the
// first failed read, so the peer sees a reset too.
func (c *Conn) CutAfterReads(n int) {
	c.mu.Lock()
	c.cutAfterReads = int64(n)
	c.mu.Unlock()
}

// CutAfterWrites arms the connection to fail every write after n more
// writes have succeeded, closing the underlying connection on the first
// failure.
func (c *Conn) CutAfterWrites(n int) {
	c.mu.Lock()
	c.cutAfterWrite = int64(n)
	c.mu.Unlock()
}

// Cut fails every subsequent operation immediately and closes the
// underlying connection, like a cable pulled mid-exchange.
func (c *Conn) Cut() {
	c.mu.Lock()
	c.cut = true
	c.mu.Unlock()
	c.inner.Close()
}

// SetLatency delays every subsequent read and write by d (0 restores
// full speed).
func (c *Conn) SetLatency(d time.Duration) {
	c.mu.Lock()
	c.latency = d
	c.mu.Unlock()
}

// SetPartialWrites caps every write at n bytes, forcing callers through
// their short-write paths (0 restores full writes). io.Writer semantics
// are preserved: the write reports how many bytes really went out.
func (c *Conn) SetPartialWrites(n int) {
	c.mu.Lock()
	c.partialMax = n
	c.mu.Unlock()
}

// Stall blocks every subsequent operation until Unstall, simulating a
// peer that is alive but not moving bytes. Operations already blocked
// inside the inner connection are not interrupted.
func (c *Conn) Stall() {
	c.mu.Lock()
	if c.stall == nil {
		c.stall = make(chan struct{})
	}
	c.mu.Unlock()
}

// Unstall releases every operation blocked by Stall.
func (c *Conn) Unstall() {
	c.mu.Lock()
	if c.stall != nil {
		close(c.stall)
		c.stall = nil
	}
	c.mu.Unlock()
}

// Stats snapshots the operation counters.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// gate applies the armed faults for one operation of kind op ("read" or
// "write"), returning a non-nil error when the operation must fail.
func (c *Conn) gate(op string) error {
	c.mu.Lock()
	stall := c.stall
	latency := c.latency
	if stall != nil {
		c.stats.Stalled++
	}
	if latency > 0 {
		c.stats.Delayed++
	}
	c.mu.Unlock()

	if stall != nil {
		<-stall
	}
	if latency > 0 {
		time.Sleep(latency)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cut {
		c.stats.Faulted++
		return &FaultError{Op: op}
	}
	var counter *int64
	if op == "read" {
		counter = &c.cutAfterReads
	} else {
		counter = &c.cutAfterWrite
	}
	if *counter == 0 {
		c.cut = true
		c.stats.Faulted++
		go c.inner.Close()
		return &FaultError{Op: op}
	}
	if *counter > 0 {
		*counter--
	}
	return nil
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	if err := c.gate("read"); err != nil {
		return 0, err
	}
	n, err := c.inner.Read(p)
	c.mu.Lock()
	c.stats.Reads++
	c.mu.Unlock()
	return n, err
}

// Write implements net.Conn, applying the partial-write cap when armed.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.gate("write"); err != nil {
		return 0, err
	}
	c.mu.Lock()
	max := c.partialMax
	c.mu.Unlock()
	if max > 0 && len(p) > max {
		n, err := c.inner.Write(p[:max])
		c.mu.Lock()
		c.stats.Writes++
		c.stats.ShortOps++
		c.mu.Unlock()
		if err != nil {
			return n, err
		}
		// A short write with a nil error violates io.Writer; report the
		// truncation explicitly so bufio retries the remainder.
		return n, io.ErrShortWrite
	}
	n, err := c.inner.Write(p)
	c.mu.Lock()
	c.stats.Writes++
	c.mu.Unlock()
	return n, err
}

// Close implements net.Conn.
func (c *Conn) Close() error { return c.inner.Close() }

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

// Listener wraps a net.Listener so every accepted connection comes back
// fault-wrapped, with Plan invoked on each new Conn to arm its faults.
type Listener struct {
	net.Listener
	// Plan, when non-nil, is called with each accepted connection before
	// it is returned, so per-connection faults can be armed up front.
	Plan func(*Conn)
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc := Wrap(conn)
	if l.Plan != nil {
		l.Plan(fc)
	}
	return fc, nil
}
