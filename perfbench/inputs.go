package main

import (
	"fmt"
	"os"
	"time"

	hdr4me "github.com/hdr4me/hdr4me"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/transport"
)

// Workload modes: how the timed phase drives the collector.
const (
	modePipeline = iota // closed-loop tuple → Session.Report → BufferedClient
	modeServe           // open-loop frame ingest beside a closed-loop query mix
)

// workload is one named traffic mix. Everything it sends is generated from
// the run's seed before timing starts, and it goes out over v2-negotiated
// connections.
type workload struct {
	name  string
	mode  int
	spec  hdr4me.QuerySpec // the collector's default query
	batch int              // reports per frame (pipeline-hd: the client's default batch)
	conns int              // ingest connections, one generator each
	// frames is how many distinct frames are recorded; serve-continual
	// cycles through them, pipeline-hd uses them for the layer probes only.
	frames int
	pool   int // raw tuples generated; reports draw from them in order

	// Continual collection (serve-continual).
	rate      float64 // open-loop ingest rate, reports/s
	every     int64   // rotate the epoch ring after this many reports
	window    int     // WindowEstimate width of the query mix
	ckptEvery int     // query-mix cycles between checkpoints

	// queryEvery paces the query mix: one cycle per tick. It is long
	// enough that the mix's own CPU and allocations stay a small share of
	// the ingest beside it; pipeline-hd's 10 ms avoids a 20 ms cycle that
	// locked its Enhanced exchanges onto a 1.3 or a 3 ms wait per run.
	queryEvery time.Duration
}

// workloads: the paper's setting end to end, and reads beside writes on a
// continual query. Two workloads that saturate collector ingest alone
// (CBATCH replay and v1 frequency-row replay) were dropped: on a shared
// 2-vCPU VM their throughput tracked the host's speed drift too closely
// to hold a 25% regression bound, and README.md records the figures.
var workloads = map[string]*workload{
	"pipeline-hd": {
		name:   "pipeline-hd",
		mode:   modePipeline,
		spec:   hdr4me.QuerySpec{Name: hdr4me.DefaultQueryName, Kind: hdr4me.KindMean, Mech: "piecewise", Eps: 0.8, D: 1024, M: 32},
		batch:  256,
		conns:  2,
		frames: 16,
		pool:   2048,

		queryEvery: 10 * time.Millisecond,
	},
	"serve-continual": {
		name:       "serve-continual",
		mode:       modeServe,
		spec:       hdr4me.QuerySpec{Name: hdr4me.DefaultQueryName, Kind: hdr4me.KindMean, Mech: "piecewise", Eps: 0.8, D: 1024, M: 32},
		batch:      256,
		conns:      1,
		frames:     64,
		pool:       2048,
		rate:       50_000,
		every:      50_000,
		window:     8,
		ckptEvery:  50,
		queryEvery: 20 * time.Millisecond,
	},
}

// minQueryEvery is the shortest query-mix tick of any workload; sample
// slices are sized from it.
const minQueryEvery = 10 * time.Millisecond

// inputs is everything a run sends, generated from the seed before timing.
type inputs struct {
	tuples  []est.Tuple
	batches [][]est.Report // recorded report batches, one per frame
	frames  [][]byte       // each batch encoded in the workload's protocol
	// frameSnaps[f] is the estimator fold of batches[f] alone: the
	// reference fold of a replay is the multiplicity-weighted sum.
	frameSnaps []est.Snapshot
	// frameTruth[f] sums the raw tuples behind batches[f].
	frameTruth [][]float64
	dims       int // length of the estimate vector
}

// generateInputs builds the tuple pool, the recorded report batches (via
// a seeded Session, exactly as a user device would perturb them), their
// encoded frames and the per-frame reference folds.
func generateInputs(cfg config, w *workload) (*inputs, error) {
	t0 := time.Now()
	in := &inputs{dims: w.spec.D}
	ds := hdr4me.NewGaussianDataset(w.pool, w.spec.D, cfg.seed)
	in.tuples = make([]est.Tuple, w.pool)
	for i := range in.tuples {
		vals := make([]float64, w.spec.D)
		ds.Row(i, vals)
		in.tuples[i] = est.Tuple{Values: vals}
	}

	sess, err := hdr4me.NewFromSpec(w.spec, hdr4me.WithSeed(cfg.seed))
	if err != nil {
		return nil, err
	}
	scratch, err := newEstimator(w.spec)
	if err != nil {
		return nil, err
	}
	rot, ok := scratch.(est.Rotator)
	if !ok {
		return nil, fmt.Errorf("%s estimator cannot rotate", w.spec.Kind)
	}
	codec, err := transport.CodecFor(transport.ProtocolV2)
	if err != nil {
		return nil, err
	}
	next := 0
	for f := 0; f < w.frames; f++ {
		batch := make([]est.Report, w.batch)
		truth := make([]float64, in.dims)
		for i := range batch {
			t := in.tuples[next%len(in.tuples)]
			next++
			if batch[i], err = sess.Report(t); err != nil {
				return nil, err
			}
			in.addTruth(truth, t)
		}
		frame, err := codec.AppendBatch(nil, "", 0, batch)
		if err != nil {
			return nil, err
		}
		if acc, err := est.AddReports(scratch, batch); err != nil || acc != len(batch) {
			return nil, fmt.Errorf("reference fold accepted %d of %d: %v", acc, len(batch), err)
		}
		in.batches = append(in.batches, batch)
		in.frames = append(in.frames, frame)
		in.frameSnaps = append(in.frameSnaps, rot.Rotate())
		in.frameTruth = append(in.frameTruth, truth)
	}
	fmt.Fprintf(os.Stderr, "inputs: %d tuples, %d frames × %d reports, %.2fs\n",
		len(in.tuples), len(in.frames), w.batch, time.Since(t0).Seconds())
	return in, nil
}

// reports counts the recorded reports.
func (in *inputs) reports() int {
	n := 0
	for _, b := range in.batches {
		n += len(b)
	}
	return n
}

// addUses counts, per pool tuple, the sends of a generator that sent n
// tuples in pool order starting at off.
func (in *inputs) addUses(uses []int64, off, n int) {
	p := len(in.tuples)
	for i := range uses {
		uses[i] += int64(n / p)
	}
	for i := 0; i < n%p; i++ {
		uses[(off+i)%p]++
	}
}

// meanOf is the true mean of the pool tuples weighted by their use counts.
func (in *inputs) meanOf(uses []int64) []float64 {
	mean := make([]float64, in.dims)
	var n int64
	for i, k := range uses {
		if k > 0 {
			for j, v := range in.tuples[i].Values {
				mean[j] += float64(k) * v
			}
			n += k
		}
	}
	for j := range mean {
		mean[j] /= float64(max(n, 1))
	}
	return mean
}

// addTruth adds one raw tuple to a truth-sum vector.
func (in *inputs) addTruth(dst []float64, t est.Tuple) {
	for j, v := range t.Values {
		dst[j] += v
	}
}

// newEstimator builds a fresh collector-side estimator for spec through
// the same construction the collector's registry uses.
func newEstimator(spec hdr4me.QuerySpec) (hdr4me.Estimator, error) {
	reg := hdr4me.NewQueryRegistry(nil)
	q, err := reg.Open(spec)
	if err != nil {
		return nil, err
	}
	return q.Estimator(), nil
}

// weightedFold is the reference fold of a replay: Σ mult[f] · frameSnaps[f].
func (in *inputs) weightedFold(mult []int64) est.Snapshot {
	ref := est.Snapshot{Kind: in.frameSnaps[0].Kind, Dims: in.frameSnaps[0].Dims, Cards: in.frameSnaps[0].Cards}
	ref.Sums = make([]float64, len(in.frameSnaps[0].Sums))
	ref.Counts = make([]int64, len(in.frameSnaps[0].Counts))
	for f, k := range mult {
		if k == 0 {
			continue
		}
		s := in.frameSnaps[f]
		for i, v := range s.Sums {
			ref.Sums[i] += float64(k) * v
		}
		for i, c := range s.Counts {
			ref.Counts[i] += k * c
		}
	}
	return ref
}

// weightedTruth is the true mean vector of the tuples
// behind a replay with the given frame multiplicities.
func (in *inputs) weightedTruth(mult []int64, batch int) []float64 {
	truth := make([]float64, in.dims)
	var n int64
	for f, k := range mult {
		for i, v := range in.frameTruth[f] {
			truth[i] += float64(k) * v
		}
		n += k * int64(batch)
	}
	for i := range truth {
		truth[i] /= float64(n)
	}
	return truth
}
