package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	hdr4me "github.com/hdr4me/hdr4me"
	"github.com/hdr4me/hdr4me/internal/est"
)

// estimateTolerance is the documented stripe-order drift between two
// folds of the same reports (Kahan lanes folded in different orders).
const estimateTolerance = 1e-9

// outcome is a phase plus what was checked and queried after it.
type outcome struct {
	*phase
	setupS   float64
	checks   int64
	failed   []string
	naiveMSE float64
	enhMSE   float64
}

// attemptedFailed folds reports, queries and checks into the result's
// attempted/failed counts.
func (o *outcome) attemptedFailed() (int64, int64) {
	attempted := o.sent + o.queries + o.checks
	failed := (o.sent - o.accepted) + o.queryFails + int64(len(o.failed))
	return attempted, failed
}

// measure stands the collector up, runs one timed phase, then checks
// the collected state.
func (r *runner) measure(ts *tracing, seconds float64) (*outcome, *collector, error) {
	col, setupS, err := r.setupCollector(seconds)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	ph, err := r.timedPhase(col, ts, seconds)
	if err != nil {
		col.close()
		return nil, nil, err
	}
	o := &outcome{phase: ph, setupS: setupS}
	if err := r.check(col, o); err != nil {
		col.close()
		return nil, nil, err
	}
	return o, col, nil
}

// check compares the collector's state with the in-process reference
// fold of exactly the reports it acknowledged.
func (r *runner) check(col *collector, o *outcome) error {
	in, cl := r.in, col.query
	fail := func(format string, args ...any) {
		o.failed = append(o.failed, fmt.Sprintf(format, args...))
	}
	o.checks++
	if o.accepted != o.sent {
		fail("collector accepted %d of %d reports", o.accepted, o.sent)
	}

	var ref est.Snapshot
	var truth []float64
	if r.w.mode == modePipeline {
		ref, truth = o.ref, o.truth
	} else {
		ref, truth = in.weightedFold(o.mult), in.weightedTruth(o.mult, r.w.batch)
	}
	want := append([]int64(nil), ref.Counts...)
	if r.cfg.miscount {
		want[0]++
	}

	// Served counts and naive estimate: the wire query for one-shot
	// queries; for the continual query every retained epoch, folded.
	var (
		counts []int64
		naive  []float64
		err    error
	)
	if col.ring != nil {
		all := retainFor(r.w, r.cfg.seconds) + 1
		snap, werr := col.ring.WindowSnapshot(all)
		if werr != nil {
			return werr
		}
		counts = snap.Counts
		naive, err = cl.Query(hdr4me.DefaultQueryName).WindowEstimate(all)
	} else {
		if counts, err = cl.Counts(); err != nil {
			return err
		}
		naive, err = cl.Estimate()
	}
	if err != nil {
		return err
	}

	o.checks++
	if len(counts) != len(want) {
		fail("collector reports %d count entries, reference has %d", len(counts), len(want))
	} else {
		for j := range want {
			if counts[j] != want[j] {
				fail("count of entry %d: collector %d, reference %d", j, counts[j], want[j])
				break
			}
		}
	}

	refEst, err := newEstimator(r.w.spec)
	if err != nil {
		return err
	}
	if err := refEst.Merge(ref); err != nil {
		return err
	}
	wantNaive := refEst.Estimate()
	o.checks++
	if len(naive) != len(wantNaive) {
		fail("collector estimate has %d entries, reference %d", len(naive), len(wantNaive))
	} else {
		for j := range wantNaive {
			if d := math.Abs(naive[j] - wantNaive[j]); !(d <= estimateTolerance*math.Max(1, math.Abs(wantNaive[j]))) {
				fail("estimate entry %d: collector %.17g, reference fold %.17g", j, naive[j], wantNaive[j])
				break
			}
		}
	}

	enhanced, err := cl.Enhanced()
	if err != nil {
		return err
	}
	if col.ring == nil {
		o.naiveMSE = hdr4me.MSE(naive, truth)
		o.enhMSE = hdr4me.MSE(enhanced, truth)
	} else {
		// Enhanced covers the live epoch only; compare it, like the
		// live naive estimate, with the truth of the whole stream.
		live, err := cl.Estimate()
		if err != nil {
			return err
		}
		o.naiveMSE = hdr4me.MSE(live, truth)
		o.enhMSE = hdr4me.MSE(enhanced, truth)
	}
	if r.w.mode == modePipeline {
		// The paper's claim at ε/m = 0.025: HDR4ME beats the naive mean,
		// checked on each generator's first claimReports reports.
		claimEst, err := newEstimator(r.w.spec)
		if err != nil {
			return err
		}
		if err := claimEst.Merge(o.claim); err != nil {
			return err
		}
		en, ok := claimEst.(est.Enhancer)
		if !ok {
			return fmt.Errorf("%s estimator has no enhanced estimate", r.w.spec.Kind)
		}
		claimEnh, err := en.Enhanced()
		if err != nil {
			return err
		}
		naiveMSE, enhMSE := hdr4me.MSE(claimEst.Estimate(), o.claimTruth), hdr4me.MSE(claimEnh, o.claimTruth)
		fmt.Fprintf(os.Stderr, "HDR4ME claim on up to %d reports per generator: naive MSE %.5g, enhanced MSE %.5g\n", claimReports, naiveMSE, enhMSE)
		o.checks++
		if !(enhMSE < naiveMSE) {
			fail("enhanced MSE %.4g is not below naive MSE %.4g", enhMSE, naiveMSE)
		}
	}
	for _, f := range o.failed {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	return nil
}

// untraced is the end-to-end run: tracing off, every end-to-end metric.
func (r *runner) untraced() (*result, error) {
	o, col, err := r.measure(nil, r.cfg.seconds)
	if err != nil {
		return nil, err
	}
	col.close()
	attempted, failed := o.attemptedFailed()
	res := &result{Correct: len(o.failed) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: endToEndUnits[name]} }
	acc := float64(max(o.accepted, 1))
	set("setup_s", o.setupS)
	set("reports_per_s", float64(o.accepted)/o.wall.Seconds())
	set("cpu_ns_per_report", float64(o.cpu.Nanoseconds())/acc)
	set("alloc_bytes_per_report", float64(o.allocBytes)/acc)
	set("max_rss_mb", maxRSSMB())
	set("enhanced_p50_ms", ms(o.windowedPercentile(o.queryLat["enhanced"], 0.50)))
	set("ack_p50_ms", ms(o.windowedPercentile(o.ackLat, 0.50)))
	r.describe(o)
	return res, nil
}

// describe writes the run's sample counts and quality figures to stderr.
func (r *runner) describe(o *outcome) {
	fmt.Fprintf(os.Stderr, "%s seed=%d: %d reports in %.3fs, %d wire bytes\n",
		r.w.name, r.cfg.seed, o.accepted, o.wall.Seconds(), o.wireBytes)
	fmt.Fprintf(os.Stderr, "  acks       n=%-6d p50=%.3fms p90=%.3fms p99=%.3fms (median of %d windows)\n",
		len(o.ackLat), ms(o.windowedPercentile(o.ackLat, 0.5)), ms(o.windowedPercentile(o.ackLat, 0.9)),
		ms(o.windowedPercentile(o.ackLat, 0.99)), latencyWindows)
	kinds := make([]string, 0)
	for k, l := range o.queryLat {
		if len(l) > 0 {
			kinds = append(kinds, k)
		}
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		l := o.queryLat[k]
		fmt.Fprintf(os.Stderr, "  query %-10s n=%-6d p50=%.3fms p90=%.3fms p99=%.3fms (median of %d windows)\n",
			k, len(l), ms(o.windowedPercentile(l, 0.5)), ms(o.windowedPercentile(l, 0.9)), ms(o.windowedPercentile(l, 0.99)), latencyWindows)
	}
	if len(o.genLag) > 0 {
		fmt.Fprintf(os.Stderr, "  generator lag n=%d p99=%.3fms\n", len(o.genLag), ms(percentile(o.genLag, 0.99)))
	}
	fmt.Fprintf(os.Stderr, "  naive MSE %.5g, enhanced MSE %.5g\n", o.naiveMSE, o.enhMSE)
}

// sample is one timed exchange: when it completed (since the phase
// started) and how long it took.
type sample struct {
	end time.Duration
	d   time.Duration
}

// latencyWindows is how many equal windows a timed phase's latency
// samples are split into.
const latencyWindows = 3

// windowedPercentile takes percentile p of the samples in each of the
// phase's latencyWindows windows (by completion time) and returns the
// median across windows, so one disturbed stretch of the run cannot
// decide a tail percentile on its own.
func (ph *phase) windowedPercentile(s []sample, p float64) time.Duration {
	var per [latencyWindows][]time.Duration
	for _, x := range s {
		w := int(x.end * latencyWindows / max(ph.wall, 1))
		w = min(max(w, 0), latencyWindows-1)
		per[w] = append(per[w], x.d)
	}
	vals := make([]time.Duration, 0, latencyWindows)
	for _, l := range per {
		if len(l) > 0 {
			vals = append(vals, percentile(l, p))
		}
	}
	return percentile(vals, 0.5)
}

// percentile is the nearest-rank percentile of the samples (0 if none).
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// endToEndUnits names every end-to-end metric with its unit, as
// BENCHMARK.json lists them.
var endToEndUnits = map[string]string{
	"setup_s":                "s",
	"reports_per_s":          "1/s",
	"cpu_ns_per_report":      "ns",
	"alloc_bytes_per_report": "B",
	"max_rss_mb":             "MB",
	"enhanced_p50_ms":        "ms",
	"ack_p50_ms":             "ms",
}
