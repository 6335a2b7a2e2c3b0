package est

import (
	"slices"
	"sync"
)

// SnapshotFolder is implemented by estimators that fold into a caller's
// snapshot: SnapshotInto is Snapshot with dst's Sums, Counts and Cards
// arrays reused (reallocated only when short), so a fold the caller
// discards costs nothing once dst has held one. It is the fold core of
// every built-in family; their Snapshot methods wrap it.
type SnapshotFolder interface {
	SnapshotInto(dst *Snapshot)
}

// SnapshotInto folds e's accumulated state into dst: through e's
// SnapshotFolder core when implemented, as a fresh Snapshot (replacing
// dst's arrays) otherwise.
func SnapshotInto(e Estimator, dst *Snapshot) {
	if sf, ok := e.(SnapshotFolder); ok {
		sf.SnapshotInto(dst)
		return
	}
	*dst = e.Snapshot()
}

// scratchPool recycles the snapshots that queries fold into and discard
// — the fold under a naive, windowed or re-calibrated estimate, the
// snapshot a collector encodes into a reply — so a query allocates only
// the vector its caller keeps.
var scratchPool = sync.Pool{New: func() any { return new(Snapshot) }}

// maxScratchRetain caps the entries of each array a pooled scratch
// keeps: one fold of an unusually wide query must not pin its arrays in
// the pool for the life of the process.
const maxScratchRetain = 1 << 18

// GetScratch returns a pooled snapshot for a transient fold. Its contents
// are undefined until filled (SnapshotInto, Stripes.FoldInto); hand it
// back with PutScratch once nothing references its arrays.
func GetScratch() *Snapshot { return scratchPool.Get().(*Snapshot) }

// PutScratch returns s to the pool. The caller must not use s, or any
// slice of its arrays, afterwards.
func PutScratch(s *Snapshot) {
	if cap(s.Sums) > maxScratchRetain || cap(s.Counts) > maxScratchRetain || cap(s.Cards) > maxScratchRetain {
		return
	}
	scratchPool.Put(s)
}

// SlicePool recycles scratch slices of one element type, for the
// per-query intermediates that are not folds (decay weights, the vectors
// a collector fills only to marshal them into a reply). The zero value
// is ready to use.
type SlicePool[T any] struct{ p sync.Pool }

// Get returns a pooled slice of n elements with undefined contents.
func (p *SlicePool[T]) Get(n int) *[]T {
	sp, _ := p.p.Get().(*[]T)
	if sp == nil {
		sp = new([]T)
	}
	*sp = Resize(*sp, n)
	return sp
}

// Put returns sp to the pool unless it grew past maxScratchRetain.
func (p *SlicePool[T]) Put(sp *[]T) {
	if cap(*sp) <= maxScratchRetain {
		p.p.Put(sp)
	}
}

// VectorFolder is implemented by estimators that write their naive
// estimate and their counts into a caller's vector: EstimateInto and
// CountsInto are Estimate and Counts with dst's backing array reused
// (reallocated only when short), so a collector that marshals the
// vector and discards it allocates nothing once dst has held one. Every
// built-in family implements it; their Estimate and Counts wrap it.
type VectorFolder interface {
	EstimateInto(dst []float64) []float64
	CountsInto(dst []int64) []int64
}

// EnhancedFolder is implemented by enhancers whose HDR4ME re-calibrated
// estimate can be written into a caller's vector, exactly as
// VectorFolder's methods; their Enhanced wraps EnhancedInto.
type EnhancedFolder interface {
	EnhancedInto(dst []float64) ([]float64, error)
}

// EstimateInto writes e's naive estimate into dst: through e's
// VectorFolder core when implemented, as a copy of Estimate's vector
// otherwise, so the result never aliases memory e may still hold.
func EstimateInto(e Estimator, dst []float64) []float64 {
	if vf, ok := e.(VectorFolder); ok {
		return vf.EstimateInto(dst)
	}
	return append(dst[:0], e.Estimate()...)
}

// CountsInto is EstimateInto for the per-dimension report counts.
func CountsInto(e Estimator, dst []int64) []int64 {
	if vf, ok := e.(VectorFolder); ok {
		return vf.CountsInto(dst)
	}
	return append(dst[:0], e.Counts()...)
}

// EnhancedInto is EstimateInto for an Enhancer's re-calibrated estimate.
func EnhancedInto(en Enhancer, dst []float64) ([]float64, error) {
	if ef, ok := en.(EnhancedFolder); ok {
		return ef.EnhancedInto(dst)
	}
	out, err := en.Enhanced()
	if err != nil {
		return nil, err
	}
	return append(dst[:0], out...), nil
}

// Resize returns dst resliced to n entries, reallocated only when its
// capacity is short; its contents are undefined. It is how every Into
// method sizes the caller's vector.
func Resize[T any](dst []T, n int) []T { return slices.Grow(dst[:0], n)[:n] }
