package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	hdr4me "github.com/hdr4me/hdr4me"
	"github.com/hdr4me/hdr4me/internal/analysis"
	"github.com/hdr4me/hdr4me/internal/epoch"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/recal"
	"github.com/hdr4me/hdr4me/internal/transport"
)

// probeTime is how long each isolated layer probe repeats its work.
const probeTime = 200 * time.Millisecond

// perLayerUnits names every per-layer metric with its unit, as
// BENCHMARK.json lists them.
var perLayerUnits = map[string]string{
	"hdr4me.report_ns":                   "ns",
	"hdr4me.report_allocs":               "count",
	"hdr4me.report_bytes":                "B",
	"highdim.make_report_ns":             "ns",
	"highdim.make_report_allocs":         "count",
	"highdim.make_report_bytes":          "B",
	"ldp.perturb_ns":                     "ns",
	"transport.add_ns":                   "ns",
	"transport.add_allocs":               "count",
	"transport.add_bytes":                "B",
	"transport.flush_ms":                 "ms",
	"transport.encode_ns_per_report":     "ns",
	"transport.encode_allocs_per_report": "count",
	"transport.encode_bytes_per_report":  "B",
	"transport.wire_bytes_per_report":    "B",
	"socket.floor_ns_per_report":         "ns",
	"transport.decode_ns_per_report":     "ns",
	"transport.decode_allocs_per_report": "count",
	"transport.decode_bytes_per_report":  "B",
	"est.lane_add_ns_per_report":         "ns",
	"est.lane_add_allocs_per_report":     "count",
	"est.lane_add_bytes_per_report":      "B",
	"transport.server_ns_per_report":     "ns",
	"transport.server_allocs_per_report": "count",
	"transport.server_bytes_per_report":  "B",
	"ledger.unaccounted_pct":             "%",
	"est.fold_us":                        "us",
	"est.fold_bytes":                     "B",
	"epoch.rotate_us":                    "us",
	"epoch.window_us":                    "us",
	"epoch.window_bytes":                 "B",
	"analysis.deviation_us":              "us",
	"recal.enhance_us":                   "us",
	"hdr4me.enhanced_us":                 "us",
	"hdr4me.enhanced_bytes":              "B",
	"transport.snapshot_codec_us":        "us",
	"transport.snapshot_codec_bytes":     "B",
	"transport.snapshot_p99_ms":          "ms",
	"transport.enhanced_p90_ms":          "ms",
	"transport.enhanced_p99_ms":          "ms",
	"transport.ack_p90_ms":               "ms",
	"transport.ack_p99_ms":               "ms",
	"persist.save_ms":                    "ms",
	"gen.lag_p99_ms":                     "ms",
	"hdr4me.enhanced_mse":                "1",
	"hdr4me.naive_mse":                   "1",
	"trace.reports_per_s":                "1/s",
	"trace.overhead_pct":                 "%",
}

// probe is one isolated layer measurement, per unit of work.
type probe struct{ ns, allocs, bytes, reps float64 }

// measureProbe runs fn (which does units units of work) once to warm up,
// then repeatedly for at least probeTime, and reports time, heap
// allocations and heap bytes per unit.
func measureProbe(units int, fn func()) probe {
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	reps := 0
	for reps < 3 || time.Since(t0) < probeTime {
		fn()
		reps++
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	u := float64(units * reps)
	return probe{
		ns:     float64(el.Nanoseconds()) / u,
		allocs: float64(m1.Mallocs-m0.Mallocs) / u,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / u,
		reps:   float64(reps),
	}
}

// traced is the per-layer run: half the time untraced (the reference for
// the tracing overhead), half traced, then the isolated layer probes on
// the workload's recorded inputs.
func (r *runner) traced() (*result, error) {
	half := r.cfg.seconds / 2
	base, col0, err := r.measure(nil, half)
	if err != nil {
		return nil, err
	}
	col0.close()
	ts := newTracing()
	o, col, err := r.measure(ts, half)
	if err != nil {
		return nil, err
	}
	defer col.close()
	if err := ts.write(spanPath(r.cfg)); err != nil {
		return nil, err
	}
	spans := ts.aggregate()
	printSpans(spans)

	L := map[string]float64{}
	if err := r.ingestProbes(L); err != nil {
		return nil, err
	}
	serverCPU, err := r.serverReplay(L)
	if err != nil {
		return nil, err
	}
	if err := r.queryProbes(col, L); err != nil {
		return nil, err
	}

	// The ledger: untraced process CPU per report against the isolated
	// costs of the layers on the report's path — the client's randomize
	// and encode (pipeline-hd only; the other workloads send pre-encoded
	// frames) plus the process CPU the real server path (socket, decode,
	// lane add) spends per report in the replay probe, plus the query
	// mix's server work (each exchange of the untraced half at its
	// in-process probe cost). The rest is GC, scheduling, contention and
	// client staging.
	layers := serverCPU
	if r.w.mode == modePipeline {
		layers += L["hdr4me.report_ns"] + L["transport.encode_ns_per_report"]
	}
	queryNs := map[string]float64{
		"enhanced":   L["hdr4me.enhanced_us"] * 1e3,
		"snapshot":   (L["est.fold_us"] + L["transport.snapshot_codec_us"]) * 1e3,
		"estimate":   L["est.fold_us"] * 1e3,
		"window":     L["epoch.window_us"] * 1e3,
		"checkpoint": L["persist.save_ms"] * 1e6,
	}
	for kind, l := range base.queryLat {
		layers += float64(len(l)) * queryNs[kind] / float64(max(base.accepted, 1))
	}
	cpu := float64(base.cpu.Nanoseconds()) / float64(max(base.accepted, 1))
	L["ledger.unaccounted_pct"] = 100 * (cpu - layers) / cpu

	acc := float64(max(o.accepted, 1))
	perCall := func(name string) float64 {
		a := spans[name]
		return float64(a.TotalNs) / float64(max(a.Count, 1))
	}
	if r.w.mode == modePipeline {
		// The layers this workload drives in its timed phase come from
		// its own spans; the probes stand in for everything else.
		L["hdr4me.report_ns"] = perCall("hdr4me.Session.Report")
		L["transport.add_ns"] = perCall("transport.BufferedClient.Add")
		L["transport.flush_ms"] = perCall("transport.BufferedClient.Close") / 1e6
	}
	L["transport.wire_bytes_per_report"] = float64(o.wireBytes) / acc
	L["transport.snapshot_p99_ms"] = ms(o.windowedPercentile(o.queryLat["snapshot"], 0.99))
	for _, p := range []float64{0.90, 0.99} {
		L[fmt.Sprintf("transport.enhanced_p%.0f_ms", 100*p)] = ms(o.windowedPercentile(o.queryLat["enhanced"], p))
		L[fmt.Sprintf("transport.ack_p%.0f_ms", 100*p)] = ms(o.windowedPercentile(o.ackLat, p))
	}
	L["gen.lag_p99_ms"] = ms(percentile(o.genLag, 0.99))
	L["hdr4me.enhanced_mse"] = o.enhMSE
	L["hdr4me.naive_mse"] = o.naiveMSE
	baseRate := float64(base.accepted) / base.wall.Seconds()
	L["trace.reports_per_s"] = float64(o.accepted) / o.wall.Seconds()
	L["trace.overhead_pct"] = 100 * (baseRate - L["trace.reports_per_s"]) / baseRate

	var failed []string
	failed = append(failed, base.failed...)
	failed = append(failed, o.failed...)
	a0, f0 := base.attemptedFailed()
	a1, f1 := o.attemptedFailed()
	res := &result{Correct: len(failed) == 0, Attempted: a0 + a1, Failed: f0 + f1, Metrics: map[string]metric{}}
	for name, unit := range perLayerUnits {
		v, ok := L[name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	fmt.Fprintf(os.Stderr, "tracing overhead: untraced %.0f reports/s, traced %.0f reports/s (%.1f%%)\n",
		baseRate, L["trace.reports_per_s"], L["trace.overhead_pct"])
	r.describe(o)
	return res, nil
}

// printSpans writes the per-name span aggregate to stderr.
func printSpans(spans map[string]spanAgg) {
	names := make([]string, 0, len(spans))
	for n := range spans {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := spans[n]
		fmt.Fprintf(os.Stderr, "  span %-34s n=%-9d total=%8.3fs self=%8.3fs\n", n, a.Count, float64(a.TotalNs)/1e9, float64(a.SelfNs)/1e9)
	}
}

// ingestProbes measures the report path layer by layer on the recorded
// inputs: randomize, stage and encode, the socket floor, decode and lane
// add. The whole server path is serverReplay's.
func (r *runner) ingestProbes(L map[string]float64) error {
	w, in := r.w, r.in
	set := func(prefix, suffix string, p probe) {
		L[prefix+"_ns"+suffix] = p.ns
		L[prefix+"_allocs"+suffix] = p.allocs
		L[prefix+"_bytes"+suffix] = p.bytes
	}
	nrep := in.reports()

	// hdr4me: Session.Report per call.
	sess, err := hdr4me.NewFromSpec(w.spec, hdr4me.WithSeed(r.cfg.seed))
	if err != nil {
		return err
	}
	const calls = 512
	var perr error
	set("hdr4me.report", "", measureProbe(calls, func() {
		for i := 0; i < calls; i++ {
			if _, err := sess.Report(in.tuples[i%len(in.tuples)]); err != nil {
				perr = err
			}
		}
	}))

	// highdim: the estimator's MakeReport with pre-derived RNGs.
	rp, ok := sess.Estimator().(est.Reporter)
	if !ok {
		return fmt.Errorf("%s estimator produces no detached reports", w.spec.Kind)
	}
	rngs := make([]*hdr4me.RNG, calls)
	for i := range rngs {
		rngs[i] = hdr4me.NewRNG(r.cfg.seed).Child(uint64(i))
	}
	set("highdim.make_report", "", measureProbe(calls, func() {
		for i := 0; i < calls; i++ {
			if _, err := rp.MakeReport(in.tuples[i%len(in.tuples)], rngs[i]); err != nil {
				perr = err
			}
		}
	}))
	if perr != nil {
		return perr
	}

	// ldp: Mechanism.Perturb per value at the per-value budget.
	mech, err := hdr4me.MechanismByName(w.spec.Mech)
	if err != nil {
		return err
	}
	eps := w.spec.Eps / float64(w.spec.M)
	var vals []float64
	for _, t := range in.tuples[:min(len(in.tuples), 64)] {
		vals = append(vals, t.Values...)
	}
	prng := hdr4me.NewRNG(r.cfg.seed)
	var sink float64
	L["ldp.perturb_ns"] = measureProbe(len(vals), func() {
		for _, v := range vals {
			sink += mech.Perturb(prng, v, eps)
		}
	}).ns
	_ = sink

	// transport: FrameCodec.AppendBatch on the recorded batches.
	codec, err := transport.CodecFor(transport.ProtocolV2)
	if err != nil {
		return err
	}
	var buf []byte
	set("transport.encode", "_per_report", measureProbe(nrep, func() {
		for _, b := range in.batches {
			if buf, err = codec.AppendBatch(buf[:0], "", 0, b); err != nil {
				perr = err
			}
		}
	}))

	// transport: FrameCodec.DecodeBatch from memory.
	var rd bytes.Reader
	br := bufio.NewReaderSize(&rd, 64<<10)
	set("transport.decode", "_per_report", measureProbe(nrep, func() {
		for _, f := range in.frames {
			rd.Reset(f)
			br.Reset(&rd)
			if _, _, _, err := codec.DecodeBatch(br, false); err != nil {
				perr = err
			}
		}
	}))
	if perr != nil {
		return perr
	}

	// est: the served path's columnar lane add on the decoded v2 batches.
	q, err := r.probeQuery()
	if err != nil {
		return err
	}
	lane := q.AcquireLane()
	type cols struct {
		n, nd, nv int
		dims      []uint32
		vals      []float64
	}
	var columns []cols
	for _, b := range in.batches {
		c := cols{n: len(b), nd: len(b[0].Dims), nv: len(b[0].Values)}
		for _, rep := range b {
			c.dims = append(c.dims, rep.Dims...)
			c.vals = append(c.vals, rep.Values...)
		}
		columns = append(columns, c)
	}
	set("est.lane_add", "_per_report", measureProbe(nrep, func() {
		for _, c := range columns {
			if _, err := est.AddColumns(lane, c.n, c.nd, c.nv, c.dims, c.vals); err != nil {
				perr = err
			}
		}
	}))
	if perr != nil {
		return perr
	}

	if err := r.socketFloor(L, nrep); err != nil {
		return err
	}
	return r.bufferedProbe(L, nrep)
}

// probeQuery registers a fresh query shaped like the served one (a
// continual ring for serve-continual).
func (r *runner) probeQuery() (*hdr4me.RegisteredQuery, error) {
	reg := hdr4me.NewQueryRegistry(nil)
	if r.w.mode == modeServe {
		var err error
		if reg, err = hdr4me.NewEpochQueryRegistry(nil, hdr4me.EpochConfig{Every: r.w.every}); err != nil {
			return nil, err
		}
	}
	return reg.Open(r.w.spec)
}

// socketFloor writes the recorded frames over a loopback connection to
// a reader that discards them: the process CPU per report of moving the
// bytes, with no decoding.
func (r *runner) socketFloor(L map[string]float64, nrep int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c)
		c.Close()
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	var werr error
	write := func() {
		for _, f := range r.in.frames {
			if _, err := c.Write(f); err != nil {
				werr = err
			}
		}
	}
	write()
	cpu0, t0, reps := processCPU(), time.Now(), 0
	for reps < 3 || time.Since(t0) < probeTime {
		write()
		reps++
	}
	cpu := processCPU() - cpu0
	c.Close()
	wg.Wait()
	L["socket.floor_ns_per_report"] = float64(cpu.Nanoseconds()) / float64(nrep*reps)
	return werr
}

// serverReplay feeds the recorded frames to a fresh collector over one
// pipelined connection, draining every ack: wall time, allocations and
// heap bytes per report of the whole server path. It returns the process
// CPU per report, for the ledger.
func (r *runner) serverReplay(L map[string]float64) (cpuPerReport float64, err error) {
	col, err := r.newCollector(r.cfg.seconds)
	if err != nil {
		return 0, err
	}
	defer col.close()
	conn := col.conns[0]
	br := bufio.NewReader(conn)
	var perr error
	// One frame per write, replayDepth frames in flight.
	acks := func(n int) {
		for ; n > 0 && perr == nil; n-- {
			_, _, perr = readBatchReply(br)
		}
	}
	replay := func() {
		inflight := 0
		for _, f := range r.in.frames {
			if inflight == replayDepth {
				acks(1)
				inflight--
			}
			if _, err := conn.Write(f); err != nil {
				perr = err
				return
			}
			inflight++
		}
		acks(inflight)
	}
	nrep := r.in.reports()
	cpu0 := processCPU()
	p := measureProbe(nrep, replay)
	cpu := processCPU() - cpu0
	L["transport.server_ns_per_report"] = p.ns
	L["transport.server_allocs_per_report"] = p.allocs
	L["transport.server_bytes_per_report"] = p.bytes
	// measureProbe ran replay once more than it timed, to warm up.
	return float64(cpu.Nanoseconds()) / (float64(nrep) * (p.reps + 1)), perr
}

// bufferedProbe ships the recorded reports through a BufferedClient at
// its default batch size: ns, allocations and heap bytes per Add call and
// the final Close. pipeline-hd replaces the times with its own spans.
func (r *runner) bufferedProbe(L map[string]float64, nrep int) error {
	col, err := r.newCollector(r.cfg.seconds)
	if err != nil {
		return err
	}
	defer col.close()
	bc := transport.NewBufferedClient(col.clients[0])
	var perr error
	p := measureProbe(nrep, func() {
		for _, b := range r.in.batches {
			for _, rep := range b {
				if err := bc.Add(rep); err != nil {
					perr = err
				}
			}
		}
	})
	t0 := time.Now()
	if err := bc.Close(); err != nil && perr == nil {
		perr = err
	}
	L["transport.add_ns"] = p.ns
	L["transport.add_allocs"] = p.allocs
	L["transport.add_bytes"] = p.bytes
	L["transport.flush_ms"] = ms(time.Since(t0))
	return perr
}

// queryProbes measures the read path in process on the served query:
// fold, HDR4ME enhancement and its parts, the snapshot codec, the
// checkpoint save, and ring rotation and windowing on a probe ring.
func (r *runner) queryProbes(col *collector, L map[string]float64) error {
	w, in := r.w, r.in
	q := col.reg.Get(hdr4me.DefaultQueryName)
	e := q.Estimator()
	fold := measureProbe(1, func() { e.Snapshot() })
	L["est.fold_us"], L["est.fold_bytes"] = fold.ns/1e3, fold.bytes

	en, ok := e.(est.Enhancer)
	if !ok {
		return fmt.Errorf("%s estimator has no enhanced estimate", w.spec.Kind)
	}
	var perr error
	enh := measureProbe(1, func() {
		if _, err := en.Enhanced(); err != nil {
			perr = err
		}
	})
	L["hdr4me.enhanced_us"], L["hdr4me.enhanced_bytes"] = enh.ns/1e3, enh.bytes

	// analysis + recal: d × Framework.Deviation over the 21-atom grid
	// spec at the observed counts, then recal.Enhance.
	mech, err := hdr4me.MechanismByName(w.spec.Mech)
	if err != nil {
		return err
	}
	snap := e.Snapshot()
	naive := e.Estimate()
	spec := hdr4me.UniformGridSpec(21)
	devs := make([]analysis.Deviation, len(naive))
	epsPer := w.spec.Eps / float64(w.spec.M)
	L["analysis.deviation_us"] = measureProbe(1, func() {
		for j := range devs {
			r := 1.0
			if j < len(snap.Counts) && snap.Counts[j] > 1 {
				r = float64(snap.Counts[j])
			}
			fw := analysis.Framework{Mech: mech, EpsPerDim: epsPer, R: r}
			if mech.Bounded() {
				devs[j] = fw.Deviation(&spec)
			} else {
				devs[j] = fw.Deviation(nil)
			}
		}
	}).ns / 1e3
	cfg := recal.DefaultConfig(recal.RegL1)
	L["recal.enhance_us"] = measureProbe(1, func() { recal.Enhance(naive, devs, cfg) }).ns / 1e3

	// transport: the snapshot codec on the served snapshot.
	var sb bytes.Buffer
	codec := measureProbe(1, func() {
		sb.Reset()
		if err := transport.EncodeSnapshot(&sb, snap); err != nil {
			perr = err
			return
		}
		if _, err := transport.DecodeSnapshot(&sb); err != nil {
			perr = err
		}
	})
	L["transport.snapshot_codec_us"], L["transport.snapshot_codec_bytes"] = codec.ns/1e3, codec.bytes

	// persist: the checkpoint save the OnCheckpoint hook performs.
	dir, err := os.MkdirTemp(r.tmp, "ckpt-")
	if err != nil {
		return err
	}
	t0 := time.Now()
	const saves = 10
	for i := 0; i < saves; i++ {
		if err := hdr4me.SaveCollectorState(dir, col.reg, nil); err != nil {
			return err
		}
	}
	L["persist.save_ms"] = ms(time.Since(t0)) / saves

	// epoch: rotate and window a probe ring holding the recorded batches
	// one epoch each.
	reg, err := hdr4me.NewEpochQueryRegistry(nil, hdr4me.EpochConfig{Retain: len(in.batches)})
	if err != nil {
		return err
	}
	pq, err := reg.Open(w.spec)
	if err != nil {
		return err
	}
	ring := pq.Estimator().(*epoch.Ring)
	var rotate time.Duration
	for _, b := range in.batches {
		if _, err := ring.AddReports(b); err != nil {
			return err
		}
		t0 := time.Now()
		ring.Rotate()
		rotate += time.Since(t0)
	}
	if _, err := ring.AddReports(in.batches[0]); err != nil {
		return err
	}
	L["epoch.rotate_us"] = float64(rotate.Nanoseconds()) / float64(len(in.batches)) / 1e3
	win := measureProbe(1, func() {
		if _, err := ring.WindowEstimate(w.windowOr(8)); err != nil {
			perr = err
		}
	})
	L["epoch.window_us"], L["epoch.window_bytes"] = win.ns/1e3, win.bytes
	return perr
}

// windowOr is the workload's window width, or def for workloads without
// a continual query.
func (w *workload) windowOr(def int) int {
	if w.window > 0 {
		return w.window
	}
	return def
}
