package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	hdr4me "github.com/hdr4me/hdr4me"
	"github.com/hdr4me/hdr4me/internal/epoch"
	"github.com/hdr4me/hdr4me/internal/transport"
)

// setupReps is how many times a run stands the collector up; setup_s is
// the median, and the last collector serves the run.
const setupReps = 51

// collector is one served query plus the benchmark's connections to it.
type collector struct {
	srv     *hdr4me.CollectorServer
	reg     *hdr4me.Registry
	addr    string
	ring    *epoch.Ring         // the served ring (continual workloads)
	conns   []*benchConn        // ingest connections
	clients []*transport.Client // over conns
	qconn   *benchConn          // the query connection
	query   *transport.Client   // over qconn
	quiet   atomic.Bool         // set once teardown starts
}

// written is the byte count the ingest connections have carried.
func (col *collector) written() int64 {
	var n int64
	for _, c := range col.conns {
		n += c.written
	}
	return n
}

// retainFor sizes the epoch ring of a continual workload so that every
// epoch of the run stays retained: the correctness check folds them all.
func retainFor(w *workload, seconds float64) int {
	return int(w.rate*seconds/float64(w.every)) + 8
}

// setupCollector times the collector's set-up — server listen, query
// registration, dial and protocol negotiation — setupReps times and keeps
// the last collector. It returns the median set-up time in seconds.
func (r *runner) setupCollector(seconds float64) (*collector, float64, error) {
	times := make([]float64, 0, setupReps)
	var col *collector
	for i := 0; i < setupReps; i++ {
		if col != nil {
			col.close()
		}
		// Start every set-up from a collected heap, so whether it reuses
		// freed memory or faults in fresh pages does not depend on where
		// the last GC cycle happened to fall.
		runtime.GC()
		t0 := time.Now()
		var err error
		col, err = r.newCollector(seconds)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	sort.Float64s(times)
	return col, times[len(times)/2], nil
}

func (r *runner) newCollector(seconds float64) (*collector, error) {
	w := r.w
	col := &collector{}
	var err error
	if w.mode == modeServe {
		col.reg, err = hdr4me.NewEpochQueryRegistry(nil, hdr4me.EpochConfig{Every: w.every, Retain: retainFor(w, seconds)})
		if err != nil {
			return nil, err
		}
	} else {
		col.reg = hdr4me.NewQueryRegistry(nil)
	}
	q, err := col.reg.Open(w.spec)
	if err != nil {
		return nil, err
	}
	if ring, ok := q.Estimator().(*epoch.Ring); ok {
		col.ring = ring
	}
	col.srv = hdr4me.NewRegistryServer(col.reg)
	logger := log.New(os.Stderr, "collector: ", 0)
	col.srv.Logf = func(format string, args ...any) {
		if !col.quiet.Load() {
			logger.Printf(format, args...)
		}
	}
	if w.mode == modeServe {
		dir, reg := r.tmp, col.reg
		col.srv.OnCheckpoint = func() error { return hdr4me.SaveCollectorState(dir, reg, nil) }
	}
	addr, err := col.srv.Listen("127.0.0.1:0")
	if err != nil {
		col.srv.Close()
		return nil, err
	}
	col.addr = addr.String()
	for i := 0; i < w.conns; i++ {
		raw, err := net.Dial("tcp", col.addr)
		if err != nil {
			col.close()
			return nil, err
		}
		bc := &benchConn{Conn: raw}
		cl := transport.NewClient(bc, transport.WithProtocolVersion(transport.ProtocolV2))
		col.conns = append(col.conns, bc)
		col.clients = append(col.clients, cl)
		if v, err := cl.Negotiate(); err != nil || v != transport.ProtocolV2 {
			col.close()
			return nil, fmt.Errorf("negotiating v2: version %d, %v", v, err)
		}
	}
	raw, err := net.Dial("tcp", col.addr)
	if err != nil {
		col.close()
		return nil, err
	}
	col.qconn = &benchConn{Conn: raw}
	col.query = transport.NewClient(col.qconn)
	return col, nil
}

// close tears the collector down and waits for its goroutines.
func (col *collector) close() {
	col.quiet.Store(true) // connection teardown is expected now
	for _, cl := range col.clients {
		cl.Close()
	}
	if col.query != nil {
		col.query.Close()
	}
	col.srv.Close()
}
