// Lock-striped accumulation: the ingest hot path shared by every
// estimator family, written once. A Stripes value banks N independent
// accumulation lanes (Kahan-compensated sums plus report counts), each
// behind its own mutex, so independent callers — one collector
// connection, one Run worker — accumulate without contending on a single
// global lock. Reads (Snapshot/Estimate/Counts) fold the stripes on
// demand under every stripe lock at once, in a fixed order, so a fold is
// an atomic point-in-time view and the floating-point association of the
// folded sum is deterministic for a fixed sequence of stripe assignments.
//
// Ownership: this file owns the lanes. Ingest (the Stripes bank plus a
// family's Kernel) chooses the stripe, allocates its lanes lazily, takes
// and releases the lock, runs the per-report, batch, columnar and lane
// paths with their skip-malformed contract, and adds peer snapshots into
// the merge lane. A family's only hand on a stripe's accumulators is the
// *Lanes its Kernel receives under the lock, so the lane accumulator type
// (mathx.KahanSum today) is named here and in the three kernels' adds.
//
// Exactness contract: a caller that only ever touches one stripe (the
// serial AddReport path pins stripe 0; a Lane pins its acquired stripe)
// folds to the bitwise-identical sums the pre-striping single-mutex
// accumulator produced, because untouched stripes contribute exact
// floating-point zeros. Multi-stripe ingest differs from the serial
// association only by the fold's final cross-stripe additions of
// compensated partials — a few ULPs — while counts stay exact.
package est

import (
	"sync"
	"sync/atomic"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// DefaultStripeCount is the stripe count every family banks by default.
// It is a fixed constant — not GOMAXPROCS — so stripe assignment and
// fold order (and therefore the exact floating-point result of a fold)
// do not depend on the machine running the collector. Stripes allocate
// their lanes lazily, so unused stripes cost one mutex each.
const DefaultStripeCount = 16

// Stripes is a lock-striped bank of accumulation lanes: nsums
// Kahan-compensated sum lanes and ncounts int64 count lanes per stripe,
// plus one merge-only base lane that peer snapshots fold into. All
// methods are safe for concurrent use. Stripes holds the fold side;
// Ingest adds the report side on top.
type Stripes struct {
	nsums   int
	ncounts int
	next    atomic.Uint32
	base    stripe // merge lane: folded first, never report-striped
	lanes   []stripe
}

// Lanes is one stripe's accumulators: Kahan-compensated sum lanes and
// int64 count lanes. A family's Kernel receives a *Lanes only while the
// stripe lock is held, and it is the only way family code reaches them.
type Lanes struct {
	Sums   []mathx.KahanSum
	Counts []int64
}

// stripe is one lock-striped lane set; its lanes stay nil until the
// stripe is first written, so idle stripes cost no memory.
type stripe struct {
	mu sync.Mutex
	Lanes
}

// Acquire returns the next stripe index round-robin. Long-lived callers
// (one connection, one worker) acquire once and keep the index: all
// their reports then accumulate under one stripe lock, in arrival order,
// preserving the serial path's exact floating-point association.
func (s *Stripes) Acquire() int {
	return int((s.next.Add(1) - 1) % uint32(len(s.lanes)))
}

// ready returns st's lanes, allocating them on first use; the caller
// holds st.mu.
func (s *Stripes) ready(st *stripe) *Lanes {
	if st.Sums == nil {
		st.Sums = make([]mathx.KahanSum, s.nsums)
		st.Counts = make([]int64, s.ncounts)
	}
	return &st.Lanes
}

// Merge folds a peer's accumulated sums and counts into the merge lane.
// Merges are kept out of the report stripes so a shard fold never
// perturbs the association of any connection's report stream. The caller
// has checked the shape: len(sums) == nsums, len(counts) == ncounts.
func (s *Stripes) Merge(sums []float64, counts []int64) {
	s.base.mu.Lock()
	defer s.base.mu.Unlock()
	l := s.ready(&s.base)
	for j, v := range sums {
		l.Sums[j].Add(v)
	}
	for j, c := range counts {
		l.Counts[j] += c
	}
}

// Kernel is a family's ingest kernel. Add checks rep against the
// family's report grammar and, only when it passes, folds it into l; a
// rejected report must leave l untouched. The ingest core calls Add once
// per report with the stripe lock held, so Add must not block or retain l.
type Kernel interface {
	Add(l *Lanes, rep Report) error
}

// Ingest is the striped-ingest core every estimator family is built on:
// stripe choice, lazy lane allocation, locking, the per-report, batch,
// columnar and lane paths and their skip-malformed contract are written
// here once, and the family supplies only its Kernel K. Families hold an
// *Ingest in an unexported field and forward to it, so the core's fold
// methods (promoted from Stripes) stay off their public method sets.
type Ingest[K Kernel] struct {
	Stripes
	k K
}

// NewIngest returns an empty ingest core folding reports through k into
// n stripes (n < 1 selects DefaultStripeCount) of nsums sum lanes and
// ncounts count lanes each.
func NewIngest[K Kernel](k K, n, nsums, ncounts int) *Ingest[K] {
	if n < 1 {
		n = DefaultStripeCount
	}
	return &Ingest[K]{Stripes: Stripes{nsums: nsums, ncounts: ncounts, lanes: make([]stripe, n)}, k: k}
}

// AddReport accumulates one report, rejecting a malformed one with the
// kernel's error. It pins the serial stripe 0, so a single-caller stream
// accumulates with exactly the pre-striping association.
func (in *Ingest[K]) AddReport(rep Report) error { return stripeLane[K]{in, 0}.AddReport(rep) }

// AddReports implements BatchAdder: the whole batch accumulates under one
// stripe lock, the stripe chosen round-robin per call.
func (in *Ingest[K]) AddReports(reps []Report) (int, error) {
	return stripeLane[K]{in, in.Acquire()}.AddReports(reps)
}

// AddColumns implements ColumnAdder: a rectangular columnar batch
// accumulates under one stripe lock, each row checked by the kernel
// exactly as the per-report path checks it, so the result is
// bitwise-identical to feeding the same rows through AddReports.
func (in *Ingest[K]) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (int, error) {
	return stripeLane[K]{in, in.Acquire()}.AddColumns(n, ndims, nvals, dims, vals)
}

// AcquireLane implements LaneProvider: the caller gets its own stripe for
// the lifetime of the handle.
func (in *Ingest[K]) AcquireLane() Lane { return stripeLane[K]{in, in.Acquire()} }

// stripeLane is the ingest path itself, bound to stripe i of an Ingest.
type stripeLane[K Kernel] struct {
	in *Ingest[K]
	i  int
}

func (l stripeLane[K]) AddReport(rep Report) error {
	_, err := l.AddReports([]Report{rep})
	return err
}

func (l stripeLane[K]) AddReports(reps []Report) (accepted int, err error) {
	st := &l.in.lanes[l.i]
	st.mu.Lock()
	defer st.mu.Unlock()
	lanes := l.in.ready(st)
	for _, rep := range reps {
		if aerr := l.in.k.Add(lanes, rep); aerr != nil {
			if err == nil {
				err = aerr
			}
			continue
		}
		accepted++
	}
	return accepted, err
}

func (l stripeLane[K]) AddColumns(n, ndims, nvals int, dims []uint32, vals []float64) (accepted int, err error) {
	if cerr := CheckColumns(n, ndims, nvals, len(dims), len(vals)); cerr != nil {
		return 0, cerr
	}
	st := &l.in.lanes[l.i]
	st.mu.Lock()
	defer st.mu.Unlock()
	lanes := l.in.ready(st)
	for r := 0; r < n; r++ {
		rep := Report{Dims: dims[r*ndims : (r+1)*ndims], Values: vals[r*nvals : (r+1)*nvals]}
		if aerr := l.in.k.Add(lanes, rep); aerr != nil {
			if err == nil {
				err = aerr
			}
			continue
		}
		accepted++
	}
	return accepted, err
}

// FoldInto folds the accumulated state into the caller's arrays: sums
// and counts are resliced to the lane widths (reallocated only when
// their capacity is short, so FoldInto(nil, nil) is a fresh copy),
// overwritten with the fold and returned. It holds the merge lane and
// every stripe lock simultaneously, so the fold is atomic exactly as the
// old single-mutex Snapshot was. Fold order is fixed — base first, then
// stripes by ascending index — and each lane contributes its
// compensated value with one plain addition, so folding is
// deterministic for a fixed ingest history and untouched stripes leave
// the folded value bitwise unchanged. It is the one fold core —
// DrainFold and FoldCounts wrap it — and a query that discards its fold
// passes pooled scratch (GetScratch), so the fold allocates nothing.
func (s *Stripes) FoldInto(sums []float64, counts []int64) ([]float64, []int64) {
	return s.foldInto(sums, counts, true, false)
}

// DrainFold atomically folds the accumulated state into a fresh copy and
// zeroes every lane — the epoch-rotation primitive. It is a fold followed
// by a reset under the same all-locks hold, so reports accumulated
// before the drain land in the returned vectors and reports accumulated
// after land in the (now empty) live lanes: nothing is lost or counted
// twice, and the ingest hot path never learns a rotation happened.
// Drained lanes keep their allocations, so rotation costs the caller two
// result slices and nothing on the ingest side.
func (s *Stripes) DrainFold() (sums []float64, counts []int64) {
	return s.foldInto(nil, nil, true, true)
}

// FoldCounts folds only the count lanes into dst, as FoldInto does —
// the Counts() fast path, which skips materializing the (possibly much
// wider) sum vector.
func (s *Stripes) FoldCounts(dst []int64) []int64 {
	_, counts := s.foldInto(nil, dst, false, false)
	return counts
}

// foldInto is the fold core: under every lock it overwrites counts —
// and sums when withSums — with the fixed-order fold, zeroing the lanes
// afterwards when drain.
func (s *Stripes) foldInto(sums []float64, counts []int64, withSums, drain bool) ([]float64, []int64) {
	if withSums {
		sums = Resize(sums, s.nsums)
		clear(sums)
	}
	counts = Resize(counts, s.ncounts)
	clear(counts)
	s.lockAll()
	defer s.unlockAll()
	s.each(func(l *Lanes) {
		if withSums {
			for j := range l.Sums {
				sums[j] += l.Sums[j].Value()
			}
		}
		for j, c := range l.Counts {
			counts[j] += c
		}
		if drain {
			clear(l.Sums)
			clear(l.Counts)
		}
	})
	return sums, counts
}

// each visits every lane set in the fixed fold order: the merge lane,
// then the stripes by ascending index. The caller holds all locks.
func (s *Stripes) each(fn func(l *Lanes)) {
	fn(&s.base.Lanes)
	for i := range s.lanes {
		fn(&s.lanes[i].Lanes)
	}
}

// lockAll acquires the merge lane and every stripe in ascending order
// (the fixed order that makes concurrent folds deadlock-free).
func (s *Stripes) lockAll() {
	s.base.mu.Lock()
	for i := range s.lanes {
		//hdrvet:ignore lockorder -- distinct stripe instances, always locked in ascending index order
		s.lanes[i].mu.Lock()
	}
	//hdrvet:ignore lockorder -- lockAll hands every stripe lock to its caller; unlockAll releases
}

func (s *Stripes) unlockAll() {
	for i := len(s.lanes) - 1; i >= 0; i-- {
		s.lanes[i].mu.Unlock()
	}
	s.base.mu.Unlock()
}
