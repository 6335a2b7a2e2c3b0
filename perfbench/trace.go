package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans for one goroutine: name, start, end, parent and
// request id. Spans nest on a stack, so each span's self time (its
// duration minus the time its children cover) is derived when it ends and
// aggregated per name; the first maxKeptSpans raw spans are kept for the
// span file. A nil *tracer records nothing, so untraced runs pay one nil
// check per boundary.
type tracer struct {
	t0    time.Time
	gid   int
	next  uint64
	stack []openSpan
	agg   map[string]*spanAgg
	kept  []spanRecord
}

type openSpan struct {
	name     string
	id, req  uint64
	start    int64
	childDur int64
}

// spanAgg accumulates one span name: how many ended, their total
// duration and their self time.
type spanAgg struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// spanRecord is one span as written to the span file.
type spanRecord struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Req     uint64 `json:"req"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Gorout  int    `json:"g"`
	SelfDur int64  `json:"self_ns"`
}

// maxKeptSpans caps the raw spans one tracer keeps in memory.
const maxKeptSpans = 20000

func newTracer(t0 time.Time, gid int) *tracer {
	return &tracer{t0: t0, gid: gid, agg: make(map[string]*spanAgg)}
}

// begin opens a span under the current innermost span.
func (t *tracer) begin(name string, req uint64) {
	if t == nil {
		return
	}
	t.next++
	t.stack = append(t.stack, openSpan{name: name, id: uint64(t.gid)<<48 | t.next, req: req, start: int64(time.Since(t.t0))})
}

// end closes the innermost span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	top := len(t.stack) - 1
	sp := t.stack[top]
	t.stack = t.stack[:top]
	dur := now - sp.start
	var parent uint64
	if top > 0 {
		t.stack[top-1].childDur += dur
		parent = t.stack[top-1].id
	}
	a := t.agg[sp.name]
	if a == nil {
		a = &spanAgg{}
		t.agg[sp.name] = a
	}
	a.Count++
	a.TotalNs += dur
	a.SelfNs += dur - sp.childDur
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, spanRecord{Name: sp.name, ID: sp.id, Parent: parent, Req: sp.req,
			Start: sp.start, End: now, Gorout: t.gid, SelfDur: dur - sp.childDur})
	}
}

// tracing owns the tracers of one traced phase.
type tracing struct {
	t0      time.Time
	mu      sync.Mutex
	tracers []*tracer
}

func newTracing() *tracing { return &tracing{t0: time.Now()} }

// tracer hands out a tracer for one goroutine; nil when tracing is off.
func (ts *tracing) tracer() *tracer {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := newTracer(ts.t0, len(ts.tracers))
	ts.tracers = append(ts.tracers, t)
	return t
}

// aggregate merges every tracer's per-name totals.
func (ts *tracing) aggregate() map[string]spanAgg {
	out := make(map[string]spanAgg)
	if ts == nil {
		return out
	}
	for _, t := range ts.tracers {
		for name, a := range t.agg {
			o := out[name]
			o.Count += a.Count
			o.TotalNs += a.TotalNs
			o.SelfNs += a.SelfNs
			out[name] = o
		}
	}
	return out
}

// write stores the kept spans (one JSON object per line) followed by the
// per-name aggregate line.
func (ts *tracing) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	var all []spanRecord
	for _, t := range ts.tracers {
		all = append(all, t.kept...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"aggregate": ts.aggregate()}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchConn is the benchmark's own net.Conn wrapper under every client:
// it counts wire bytes, records socket.write/socket.read spans on the
// tracers of the goroutines that write and read it, and — when an ack
// clock is armed — times each batch from its frame write to its ack.
type benchConn struct {
	net.Conn
	written  int64
	wtr, rtr *tracer
	acks     *ackClock
	req      uint64 // request id stamped on socket spans
}

func (c *benchConn) Write(p []byte) (int, error) {
	c.wtr.begin("socket.write", c.req)
	at := time.Now()
	n, err := c.Conn.Write(p)
	c.wtr.end()
	c.written += int64(n)
	if c.acks != nil {
		c.acks.sent(at)
	}
	return n, err
}

func (c *benchConn) Read(p []byte) (int, error) {
	var req uint64
	if c.rtr != nil && c.rtr == c.wtr { // one goroutine writes and reads: req is its own
		req = c.req
	}
	c.rtr.begin("socket.read", req)
	n, err := c.Conn.Read(p)
	c.rtr.end()
	if c.acks != nil && n > 0 {
		c.acks.received(n, time.Now())
	}
	return n, err
}

// ackClock pairs batch frames with their acks on a connection that
// carries nothing else while it is armed: every Write is one whole batch
// frame (BufferedClient writes each encoded frame in a single call) and
// every batch reply is batchReplyLen bytes, so the k-th reply completes
// the k-th frame.
type ackClock struct {
	t0        time.Time // the phase start samples are stamped against
	sendTimes []time.Time
	head      int
	partial   int
	lat       []sample
}

// pipelineAckRate bounds the batches per second one BufferedClient ships;
// the clock's slices are sized from it before timing starts.
const pipelineAckRate = 5_000

func newAckClock(t0 time.Time, seconds float64) *ackClock {
	n := sampleCap(seconds, pipelineAckRate)
	return &ackClock{t0: t0, sendTimes: make([]time.Time, 0, n), lat: make([]sample, 0, n)}
}

// batchReplyLen is the size of a batch acknowledgement: status byte plus
// uint32 accepted count.
const batchReplyLen = 5

func (a *ackClock) sent(at time.Time) { a.sendTimes = append(a.sendTimes, at) }

func (a *ackClock) received(n int, at time.Time) {
	a.partial += n
	for a.partial >= batchReplyLen && a.head < len(a.sendTimes) {
		a.partial -= batchReplyLen
		a.lat = append(a.lat, sample{at.Sub(a.t0), at.Sub(a.sendTimes[a.head])})
		a.head++
	}
}
