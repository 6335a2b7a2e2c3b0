package freq

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Golden streams for the frequency simulations: FNV-64a digests of the
// estimate bits for fixed seeds. A changed digest means a change altered
// the random stream; never update one to make a change pass.

func digestFreqs(freqs [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range freqs {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

var goldenFreq = map[string]uint64{
	"oracle/GRR":         0x91b01d8c67522450,
	"oracle/OUE":         0x7ec08a6661bd1e53,
	"simulate/Piecewise": 0x7a693e1c8871f4db,
}

func TestGoldenFreqSimulations(t *testing.T) {
	cards := []int{3, 5, 2, 4, 6, 3, 7, 2}
	ds := NewUniformCat(2000, cards, 43)
	p := Protocol{Mech: ldp.Piecewise{}, Eps: 2, Cards: cards, M: 3}
	check := func(key string, got uint64) {
		t.Helper()
		if want := goldenFreq[key]; got != want {
			t.Errorf("%s: digest %#x, want %#x", key, got, want)
		}
	}
	agg, err := simulate(p, ds, mathx.NewRNG(47), 3)
	if err != nil {
		t.Fatal(err)
	}
	check("simulate/Piecewise", digestFreqs(agg.Estimate()))
	for _, o := range []Oracle{GRR{}, OUE{}} {
		oa, err := SimulateOracle(p, o, ds, mathx.NewRNG(53), 3)
		if err != nil {
			t.Fatal(err)
		}
		check("oracle/"+o.Name(), digestFreqs(oa.Estimate()))
	}
}
