package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
	"syscall"
	"time"

	hdr4me "github.com/hdr4me/hdr4me"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/transport"
)

// runner carries one invocation's workload, inputs and scratch directory.
type runner struct {
	cfg config
	w   *workload
	in  *inputs
	tmp string
}

// replayDepth is how many frames the server replay probe keeps in flight
// before it drains their acks.
const replayDepth = 4

// Batch reply status bytes (the wire grammar's ack codes).
const (
	statusOK    = 0x00
	statusRetry = 0xFE
)

// phase is what one timed phase measured.
type phase struct {
	seconds    float64 // planned length of the timed phase
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	sent       int64 // reports shipped
	accepted   int64 // reports the collector acknowledged as accepted
	wireBytes  int64 // bytes written on the ingest connections
	ackLat     []sample
	genLag     []time.Duration
	queryLat   map[string][]sample
	queries    int64
	queryFails int64

	// Reference data for the correctness checks.
	mult  []int64      // serve-continual: per-frame acked multiplicity
	ref   est.Snapshot // pipeline-hd: fold of every report sent
	truth []float64    // pipeline-hd: true mean of the tuples sent
	// pipeline-hd: the fold of each generator's first claimReports
	// reports, and the true mean of their tuples.
	claim      est.Snapshot
	claimTruth []float64

	cpuStart  time.Duration
	allocFrom uint64
	t0        time.Time
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// sampleCap sizes a sample slice for a phase of the given length at the
// given event rate, so the timed phase does not grow it. Untouched
// capacity costs address space, not resident memory.
func sampleCap(seconds, perSecond float64) int { return int(seconds*perSecond) + 64 }

func (ph *phase) start() {
	ph.queryLat = make(map[string][]sample)
	for _, kind := range []string{"enhanced", "window", "estimate", "snapshot", "checkpoint"} {
		ph.queryLat[kind] = make([]sample, 0, sampleCap(ph.seconds, float64(time.Second/minQueryEvery)))
	}
	ph.allocFrom = totalAlloc()
	ph.cpuStart = processCPU()
	ph.t0 = time.Now()
}

func (ph *phase) stop() {
	ph.wall = time.Since(ph.t0)
	ph.cpu = processCPU() - ph.cpuStart
	ph.allocBytes = totalAlloc() - ph.allocFrom
}

// timedPhase runs the workload's load for the given seconds.
func (r *runner) timedPhase(col *collector, ts *tracing, seconds float64) (*phase, error) {
	if r.w.mode == modePipeline {
		return r.pipelinePhase(col, ts, seconds)
	}
	return r.servePhase(col, ts, seconds)
}

// claimReports is how many reports of each pipeline-hd generator the
// HDR4ME claim is checked on. The claim holds in a noise regime: the more
// reports per dimension, the less a re-calibration can gain over the
// naive mean, so a fixed sample size keeps the check independent of how
// many reports a run's machine manages to send.
const claimReports = 1 << 19

// pipelinePhase: two closed-loop generators, each perturbing tuples with
// its own seeded Session and shipping through its own v2 BufferedClient,
// while the query connection runs the query mix.
func (r *runner) pipelinePhase(col *collector, ts *tracing, seconds float64) (*phase, error) {
	w, in := r.w, r.in
	type gen struct {
		sess  *hdr4me.Session
		bc    *transport.BufferedClient
		tr    *tracer
		off   int
		n     int
		sums  []mathx.KahanSum
		count []int64
		claim est.Snapshot // the reference fold after claimReports reports
		err   error
		sent  int64
		acc   int64
	}
	fold := func(s *gen) est.Snapshot {
		snap := est.Snapshot{Kind: w.spec.Kind, Dims: in.dims, Sums: make([]float64, in.dims), Counts: append([]int64(nil), s.count...)}
		for j := range s.sums {
			snap.Sums[j] = s.sums[j].Value()
		}
		return snap
	}
	gens := make([]*gen, len(col.conns))
	for g := range gens {
		sess, err := hdr4me.NewFromSpec(w.spec, hdr4me.WithSeed(r.cfg.seed<<8|uint64(g+1)))
		if err != nil {
			return nil, err
		}
		tr := ts.tracer()
		col.conns[g].wtr, col.conns[g].rtr = tr, tr
		gens[g] = &gen{
			sess:  sess,
			bc:    transport.NewBufferedClient(col.clients[g]),
			tr:    tr,
			off:   g * len(in.tuples) / len(gens),
			sums:  make([]mathx.KahanSum, in.dims),
			count: make([]int64, in.dims),
		}
	}
	written0 := col.written()
	ph := &phase{seconds: seconds}
	ph.start()
	for _, c := range col.conns {
		c.acks = newAckClock(ph.t0, seconds)
	}
	deadline := ph.t0.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	r.startQueries(col, ph, ts, deadline, &wg)
	for g := range gens {
		wg.Add(1)
		go func(s *gen, conn *benchConn) {
			defer wg.Done()
			tr := s.tr
			for i := 0; ; i++ {
				if i%16 == 0 && !time.Now().Before(deadline) {
					break
				}
				req := uint64(i)
				tr.begin("hdr4me.Session.Report", req)
				rep, err := s.sess.Report(in.tuples[(s.off+i)%len(in.tuples)])
				tr.end()
				if err != nil {
					s.err = err
					break
				}
				tr.begin("bench.reference_fold", req)
				for k, j := range rep.Dims {
					s.sums[j].Add(rep.Values[k])
					s.count[j]++
				}
				tr.end()
				conn.req = req
				tr.begin("transport.BufferedClient.Add", req)
				err = s.bc.Add(rep)
				tr.end()
				if s.n++; s.n == claimReports {
					s.claim = fold(s)
				}
				if err != nil {
					s.err = err
					break
				}
			}
			tr.begin("transport.BufferedClient.Close", uint64(s.n))
			if err := s.bc.Close(); err != nil && s.err == nil {
				s.err = err
			}
			tr.end()
			s.sent, s.acc = s.bc.Sent(), s.bc.Accepted()
		}(gens[g], col.conns[g])
	}
	wg.Wait()
	ph.stop()
	ph.wireBytes = col.written() - written0

	ph.ref = est.Snapshot{Kind: w.spec.Kind, Dims: in.dims, Sums: make([]float64, in.dims), Counts: make([]int64, in.dims)}
	ph.claim = est.Snapshot{Kind: w.spec.Kind, Dims: in.dims, Sums: make([]float64, in.dims), Counts: make([]int64, in.dims)}
	uses := make([]int64, len(in.tuples))
	claimUses := make([]int64, len(in.tuples))
	for _, s := range gens {
		if s.err != nil {
			return nil, fmt.Errorf("generator: %w", s.err)
		}
		ph.sent += s.sent
		ph.accepted += s.acc
		all := fold(s)
		if s.claim.Sums == nil { // a short run: the claim is checked on all of it
			s.claim = all
		}
		for j := range all.Sums {
			ph.ref.Sums[j] += all.Sums[j]
			ph.ref.Counts[j] += all.Counts[j]
			ph.claim.Sums[j] += s.claim.Sums[j]
			ph.claim.Counts[j] += s.claim.Counts[j]
		}
		in.addUses(uses, s.off, s.n)
		in.addUses(claimUses, s.off, min(s.n, claimReports))
	}
	ph.truth, ph.claimTruth = in.meanOf(uses), in.meanOf(claimUses)
	for _, c := range col.conns {
		ph.ackLat = append(ph.ackLat, c.acks.lat...)
		c.acks = nil
	}
	return ph, nil
}

// readBatchReply reads one batch acknowledgement: a status byte and,
// unless the batch was shed, the uint32 accepted count.
func readBatchReply(br *bufio.Reader) (status byte, accepted int, err error) {
	if status, err = br.ReadByte(); err != nil {
		return 0, 0, err
	}
	if status == statusRetry {
		return status, 0, nil
	}
	var cb [4]byte
	if _, err := io.ReadFull(br, cb[:]); err != nil {
		return 0, 0, err
	}
	return status, int(binary.BigEndian.Uint32(cb[:])), nil
}

// servePhase: one connection ingests frames open-loop at the workload's
// fixed rate while the query connection runs the query mix.
func (r *runner) servePhase(col *collector, ts *tracing, seconds float64) (*phase, error) {
	w, in := r.w, r.in
	ingest := col.conns[0]
	ingest.wtr, ingest.rtr = ts.tracer(), ts.tracer()
	interval := time.Duration(float64(w.batch) / w.rate * float64(time.Second))
	type flight struct {
		f   int
		due time.Time
	}
	flights := make(chan flight, 1<<16)
	written0 := ingest.written
	ph := &phase{seconds: seconds, mult: make([]int64, len(in.frames))}
	var (
		writeErr, readErr error
		ackLat            = make([]sample, 0, sampleCap(seconds, w.rate/float64(w.batch)))
		genLag            = make([]time.Duration, 0, sampleCap(seconds, w.rate/float64(w.batch)))
		sent, accepted    int64
	)
	ph.start()
	deadline := ph.t0.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // open-loop generator
		defer wg.Done()
		defer close(flights)
		for k := 0; ; k++ {
			due := ph.t0.Add(time.Duration(k) * interval)
			if !due.Before(deadline) {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			genLag = append(genLag, time.Since(due))
			f := k % len(in.frames)
			ingest.req = uint64(k)
			if _, err := ingest.Write(in.frames[f]); err != nil {
				writeErr = err
				return
			}
			sent += int64(w.batch)
			flights <- flight{f, due}
		}
	}()
	go func() { // ack reader
		defer wg.Done()
		br := bufio.NewReader(ingest)
		for fl := range flights {
			if readErr != nil {
				continue
			}
			status, acc, err := readBatchReply(br)
			if err != nil {
				readErr = err
				continue
			}
			now := time.Now()
			ackLat = append(ackLat, sample{now.Sub(ph.t0), now.Sub(fl.due)})
			accepted += int64(acc)
			if status == statusOK && acc == w.batch {
				ph.mult[fl.f]++
			}
		}
	}()
	r.startQueries(col, ph, ts, deadline, &wg)
	wg.Wait()
	ph.stop()
	if writeErr != nil || readErr != nil {
		return nil, fmt.Errorf("ingest connection: write %v, read %v", writeErr, readErr)
	}
	ph.sent, ph.accepted = sent, accepted
	ph.ackLat, ph.genLag = ackLat, genLag
	ph.wireBytes = ingest.written - written0
	return ph, nil
}

// startQueries runs the workload's query mix on the query connection
// until the deadline: closed-loop with a fixed think time, one cycle per
// w.queryEvery tick (at once when the previous cycle overran its tick).
// Every workload times Enhanced and PullSnapshot; serve-continual runs
// Enhanced, WindowEstimate, Estimate and PullSnapshot in that order, plus
// a Checkpoint every ckptEvery cycles.
func (r *runner) startQueries(col *collector, ph *phase, ts *tracing, deadline time.Time, wg *sync.WaitGroup) {
	w, cl := r.w, col.query
	tr := ts.tracer()
	col.qconn.wtr, col.qconn.rtr = tr, tr
	q := cl.Query(hdr4me.DefaultQueryName)
	timed := func(kind string, fn func() error) {
		ph.queries++
		tr.begin("wire."+kind, uint64(ph.queries))
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		tr.end()
		if err != nil {
			ph.queryFails++
			return
		}
		ph.queryLat[kind] = append(ph.queryLat[kind], sample{t0.Add(d).Sub(ph.t0), d})
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for cyc := 0; ; cyc++ {
			next := ph.t0.Add(time.Duration(cyc) * w.queryEvery)
			if !next.Before(deadline) {
				return
			}
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			timed("enhanced", func() error { _, err := cl.Enhanced(); return err })
			if w.mode == modeServe {
				timed("window", func() error { _, err := q.WindowEstimate(w.window); return err })
				timed("estimate", func() error { _, err := cl.Estimate(); return err })
			}
			timed("snapshot", func() error { _, err := cl.PullSnapshot(); return err })
			if w.mode == modeServe && cyc%w.ckptEvery == w.ckptEvery-1 {
				timed("checkpoint", cl.Checkpoint)
			}
		}
	}()
}
