package freq

import (
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/recal"
)

// KindFreq identifies the frequency/histogram estimator family.
const KindFreq = "freq"

// Flat is the frequency family under the unified est.Estimator
// interface: every estimator method comes from the embedded est.Family
// core, over the flattened coordinate space in which entry (j, k) lives
// at Σ_{i<j} card(i) + k (Unflatten splits it back into rows). The flattened frame is the [0, 1] frequency frame (the
// entry frame of the paper's histogram encoding). Flat is safe for
// concurrent use.
type Flat struct {
	*est.Family
	// Aggregator is the per-dimension view of the same accumulation.
	Aggregator *Aggregator
}

// NewFlat returns an empty frequency collector speaking the unified
// estimator interface. cfg parameterizes Enhanced (RegNone passes the
// naive estimate through).
func NewFlat(p Protocol, cfg recal.Config) (*Flat, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a := NewAggregator(p)
	a.fam.SetEnhance(cfg)
	return &Flat{Family: a.fam, Aggregator: a}, nil
}

var _ est.Deviator = (*freqCal)(nil)
