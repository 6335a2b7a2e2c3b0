package est

import (
	"slices"
	"sync"
)

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
// are undefined until filled (Core.SnapshotInto, Stripes.FoldInto); hand it
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

// Resize returns dst resliced to n entries, reallocated only when its
// capacity is short; its contents are undefined. It is how every Into
// method sizes the caller's vector.
func Resize[T any](dst []T, n int) []T { return slices.Grow(dst[:0], n)[:n] }
