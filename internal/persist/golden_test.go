package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/hdr4me/hdr4me/internal/epoch"
	"github.com/hdr4me/hdr4me/internal/est"
)

// wideContinualState is a checkpoint of the paper's shape: a d = 1024
// continual mean query with 40 frozen epochs, so the payload (~680 KB)
// spans many buffer fills of the streamed encoder.
func wideContinualState() State {
	const d, frozen = 1024, 40
	snap := func(seed int) est.Snapshot {
		s := est.Snapshot{Kind: est.KindMean, Dims: d, Sums: make([]float64, d), Counts: make([]int64, d)}
		for j := range d {
			s.Sums[j] = float64((seed*31+j*7)%509)/8 - 30
			s.Counts[j] = int64(seed*3 + j%17)
		}
		return s
	}
	ep := &EpochState{Cur: 57}
	for i := range frozen {
		ep.Entries = append(ep.Entries, epoch.Entry{ID: uint64(57 - frozen + i), Snap: snap(i + 1)})
	}
	return State{
		Accountant: &AccountantState{Total: 4, Spent: 0.8},
		Queries: []QueryRecord{{
			Spec:   est.QuerySpec{Name: "default", Kind: est.KindMean, Mech: "piecewise", Eps: 0.8, D: d, M: 32},
			Snap:   snap(0),
			Epochs: ep,
		}},
	}
}

// TestEncodeGolden pins the checkpoint bytes (format version 2) of
// fixed states: the SHA-256 digests below were recorded from the
// encoder that built the whole payload in memory before writing it, so
// the streamed encoder must reproduce them byte for byte.
func TestEncodeGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		state  State
		size   int
		digest string
	}{
		{"empty", State{}, 29, "4792f92278b4b487aacddd27bfa7c4a81aa18d3ef14e0da1305e72c12d694f63"},
		{"sample", sampleState(), 429, "0a29a86198db6658e5724dde52539b9d38205b0f63a5f4d177d440cbdbcf4cd9"},
		{"continual", continualState(), 641, "2c37b7187eb2c117e0f9a516d736ab67e73de401650255ad9fd43f9a17e3d291"},
		{"wide continual", wideContinualState(), 673160, "411f8f415a1ba1e4acfc50181d51b55716e6d70ed54e58eff382af656ff7525f"},
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, tc.state); err != nil {
			t.Fatalf("%s: Encode: %v", tc.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); buf.Len() != tc.size || got != tc.digest {
			t.Errorf("%s: %d bytes with digest %s, want %d bytes with digest %s", tc.name, buf.Len(), got, tc.size, tc.digest)
		}
	}
}
