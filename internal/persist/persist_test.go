package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/hdr4me/hdr4me/internal/epoch"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/recal"
	"github.com/hdr4me/hdr4me/internal/transport"
)

// fakeKernel is a minimal additive family's kernel: it lands Values[i]
// on lane Dims[i]. Enough to prove restore reproduces state without
// dragging in a real family.
type fakeKernel struct{ d int }

func (k fakeKernel) Add(l *est.Lanes, rep est.Report) error {
	for _, d := range rep.Dims {
		if int(d) >= k.d {
			return fmt.Errorf("fake: dim %d out of range", d)
		}
	}
	for i, d := range rep.Dims {
		l.Sums[d].Add(rep.Values[i])
		l.Counts[d]++
	}
	return nil
}

// fakeCal estimates a fold by its sums.
type fakeCal struct{}

func (fakeCal) MakeReport(est.Tuple, *mathx.RNG) (est.Report, error) {
	return est.Report{}, fmt.Errorf("fake: no reports")
}
func (fakeCal) Calibrate(dst, sums []float64, _ []int64) { copy(dst, sums) }
func (fakeCal) CalibrateWeighted(dst, sums, _ []float64) { copy(dst, sums) }

func newFake(kind string, d int) *est.Family {
	return est.NewFamily(fakeKernel{d}, fakeCal{}, est.Layout{Kind: kind, Dims: d, Sums: d, Counts: d}, recal.Config{})
}

// fakeAdmission charges ε against a ceiling, recording every admit.
type fakeAdmission struct {
	total, spent float64
	admitted     []string
}

func (a *fakeAdmission) Admit(spec est.QuerySpec) error {
	if a.spent+spec.Eps > a.total {
		return fmt.Errorf("fake: %q over budget", spec.Name)
	}
	a.spent += spec.Eps
	a.admitted = append(a.admitted, spec.Name)
	return nil
}
func (a *fakeAdmission) Release(spec est.QuerySpec) { a.spent -= spec.Eps }

func fakeFactory(spec est.QuerySpec) (est.Core, error) {
	d := spec.D
	if spec.Kind == est.KindFreq {
		d = 0
		for _, c := range spec.Cards {
			d += c
		}
	}
	return newFake(spec.Kind, d), nil
}

// sampleState builds a representative checkpoint: accountant ledger with
// sunk spend, three families, one sealed query.
func sampleState() State {
	return State{
		Accountant: &AccountantState{Total: 2.0, Spent: 1.9},
		Queries: []QueryRecord{
			{
				Spec: est.QuerySpec{Name: "fq", Kind: est.KindFreq, Mech: "squarewave", Eps: 0.5, D: 2, M: 2, Cards: []int{3, 4}},
				Snap: est.Snapshot{Kind: est.KindFreq, Dims: 7, Cards: []int{3, 4},
					Sums: []float64{1, 2, 3, 4, 5, 6, 7}, Counts: []int64{4, 4}},
			},
			{
				Spec:   est.QuerySpec{Name: "mq", Kind: est.KindMean, Mech: "piecewise", Eps: 0.8, D: 3, M: 3},
				Sealed: true,
				Snap: est.Snapshot{Kind: est.KindMean, Dims: 3,
					Sums: []float64{0.25, -1.5, 3.125}, Counts: []int64{10, 11, 12}},
			},
			{
				Spec: est.QuerySpec{Name: "wq", Kind: est.KindWholeTuple, Eps: 0.6, D: 2, M: 2},
				Snap: est.Snapshot{Kind: est.KindWholeTuple, Dims: 2,
					Sums: []float64{7.5, -2.25}, Counts: []int64{20}},
			},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for name, state := range map[string]State{
		"full":          sampleState(),
		"empty":         {},
		"no-accountant": {Queries: sampleState().Queries[:1]},
		"no-queries":    {Accountant: &AccountantState{Total: 1, Spent: 0.25}},
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, state); err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		// Wire vectors decode empty-but-non-nil; normalize via a second
		// encode so the comparison is canonical-form vs canonical-form.
		var buf2 bytes.Buffer
		if err := Encode(&buf2, got); err != nil {
			t.Fatalf("%s: re-Encode: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%s: encoding not stable across a round trip", name)
		}
		if state.Accountant != nil && *got.Accountant != *state.Accountant {
			t.Fatalf("%s: accountant %+v, want %+v", name, got.Accountant, state.Accountant)
		}
		if len(got.Queries) != len(state.Queries) {
			t.Fatalf("%s: %d queries, want %d", name, len(got.Queries), len(state.Queries))
		}
		for i, q := range got.Queries {
			want := state.Queries[i]
			if q.Spec.Name != want.Spec.Name || q.Sealed != want.Sealed ||
				!reflect.DeepEqual(q.Snap.Sums, want.Snap.Sums) ||
				!reflect.DeepEqual(q.Snap.Counts, want.Snap.Counts) {
				t.Fatalf("%s: query %d = %+v, want %+v", name, i, q, want)
			}
		}
	}
}

func TestDecodeRefusesCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleState()); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	good := buf.Bytes()
	if _, err := Decode(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine checkpoint refused: %v", err)
	}

	cases := map[string]func([]byte) []byte{
		"magic":     func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"version":   func(b []byte) []byte { b[len(magic)+3] ^= 0xFF; return b },
		"length":    func(b []byte) []byte { b[len(magic)+4] ^= 0xFF; return b },
		"payload":   func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
		"crc":       func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-5] },
		"empty":     func(b []byte) []byte { return nil },
	}
	for name, mutate := range cases {
		b := mutate(append([]byte(nil), good...))
		if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s corruption: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state") // Save must create it
	if _, err := Load(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Load on missing dir: err = %v, want fs.ErrNotExist", err)
	}
	state := sampleState()
	if err := Save(dir, state); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(got.Queries) != 3 || *got.Accountant != *state.Accountant {
		t.Fatalf("Load = %+v, want %+v", got, state)
	}

	// Overwrite atomically: a second Save replaces, leaves no temp files.
	state.Queries = state.Queries[:1]
	if err := Save(dir, state); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	if got, err = Load(dir); err != nil || len(got.Queries) != 1 {
		t.Fatalf("Load after re-Save: %+v, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != FileName {
		t.Fatalf("state dir holds %v, want only %s", entries, FileName)
	}

	// A corrupted file on disk is refused through Load too.
	path := filepath.Join(dir, FileName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load of corrupted file: err = %v, want ErrCorrupt", err)
	}
}

func TestCaptureRestoreThroughAdmission(t *testing.T) {
	src := est.NewRegistry(fakeFactory, nil)
	specs := []est.QuerySpec{
		{Name: "mq", Kind: est.KindMean, Mech: "piecewise", Eps: 0.8, D: 3},
		{Name: "fq", Kind: est.KindFreq, Mech: "squarewave", Eps: 0.5, Cards: []int{2, 3}},
	}
	for _, spec := range specs {
		q, err := src.Open(spec)
		if err != nil {
			t.Fatalf("Open %q: %v", spec.Name, err)
		}
		if err := q.AddReport(est.Report{Dims: []uint32{0, 1}, Values: []float64{0.5, -0.25}}); err != nil {
			t.Fatalf("AddReport %q: %v", spec.Name, err)
		}
	}
	if err := src.Seal("fq"); err != nil {
		t.Fatal(err)
	}

	records := Capture(src)
	if len(records) != 2 {
		t.Fatalf("Capture: %d records, want 2", len(records))
	}
	if records[0].Spec.Name != "fq" || !records[0].Sealed || records[1].Spec.Name != "mq" || records[1].Sealed {
		t.Fatalf("Capture records wrong: %+v", records)
	}

	adm := &fakeAdmission{total: 2.0}
	dst := est.NewRegistry(fakeFactory, adm)
	if err := Restore(dst, records); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// Restored registrations went through the admission gate.
	if len(adm.admitted) != 2 || math.Abs(adm.spent-1.3) > 1e-12 {
		t.Fatalf("admission saw %v (spent %g), want both queries (1.3)", adm.admitted, adm.spent)
	}
	for _, name := range []string{"mq", "fq"} {
		sq, dq := src.Get(name), dst.Get(name)
		if dq == nil {
			t.Fatalf("query %q not restored", name)
		}
		if !reflect.DeepEqual(dq.Estimator().Estimate(), sq.Estimator().Estimate()) {
			t.Errorf("query %q: restored estimate %v, want %v", name, dq.Estimator().Estimate(), sq.Estimator().Estimate())
		}
		if !reflect.DeepEqual(dq.Estimator().Counts(), sq.Estimator().Counts()) {
			t.Errorf("query %q: restored counts differ", name)
		}
		if dq.State() != sq.State() {
			t.Errorf("query %q: restored state %v, want %v", name, dq.State(), sq.State())
		}
	}
	// The restored sealed query still refuses reports.
	if err := dst.Get("fq").AddReport(est.Report{Dims: []uint32{0}, Values: []float64{1}}); err == nil {
		t.Error("restored sealed query accepted a report")
	}

	// Restore into a registry whose admission refuses: error names the query.
	tight := est.NewRegistry(fakeFactory, &fakeAdmission{total: 0.9})
	err := Restore(tight, records)
	if err == nil || !strings.Contains(err.Error(), "mq") {
		t.Fatalf("Restore over budget: err = %v, want a refusal naming the over-budget query", err)
	}
}

// continualState is sampleState plus everything format version 2 added:
// a renewal ledger on the accountant and a frozen epoch ring on one
// query.
func continualState() State {
	state := sampleState()
	state.Accountant.Renewal = &RenewalState{
		Horizon: 4,
		Epoch:   9,
		Tail:    []TailCharge{{Eps: 0.3, Left: 2}, {Eps: 0.1, Left: 4}},
	}
	state.Queries[1].Epochs = &EpochState{
		Cur: 3,
		Entries: []epoch.Entry{
			{ID: 1, Snap: est.Snapshot{Kind: est.KindMean, Dims: 3,
				Sums: []float64{0.5, 0.25, -0.75}, Counts: []int64{3, 3, 3}}},
			{ID: 2, Snap: est.Snapshot{Kind: est.KindMean, Dims: 3,
				Sums: []float64{1.5, -2.25, 0.125}, Counts: []int64{5, 5, 5}}},
		},
	}
	return state
}

func TestEncodeDecodeContinualRoundTrip(t *testing.T) {
	state := continualState()
	var buf bytes.Buffer
	if err := Encode(&buf, state); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got.Accountant.Renewal, state.Accountant.Renewal) {
		t.Fatalf("renewal ledger %+v, want %+v", got.Accountant.Renewal, state.Accountant.Renewal)
	}
	if got.Queries[0].Epochs != nil || got.Queries[2].Epochs != nil {
		t.Fatal("one-shot queries grew epoch state across the round trip")
	}
	ep := got.Queries[1].Epochs
	if ep == nil {
		t.Fatal("epoch ring lost across the round trip")
	}
	if ep.Cur != 3 || len(ep.Entries) != 2 {
		t.Fatalf("epoch ring = %+v, want cur 3 with 2 frozen epochs", ep)
	}
	for i, e := range ep.Entries {
		want := state.Queries[1].Epochs.Entries[i]
		if e.ID != want.ID || !reflect.DeepEqual(e.Snap.Sums, want.Snap.Sums) ||
			!reflect.DeepEqual(e.Snap.Counts, want.Snap.Counts) {
			t.Fatalf("frozen epoch %d = %+v, want %+v", i, e, want)
		}
	}
}

// TestDecodeVersion1 pins backward compatibility: a checkpoint written
// by the pre-epoch format (version 1 — no renewal flag, no per-query
// epoch flag) still decodes.
func TestDecodeVersion1(t *testing.T) {
	state := sampleState()
	var payload bytes.Buffer
	payload.WriteByte(1)
	var ab [16]byte
	binary.BigEndian.PutUint64(ab[:8], math.Float64bits(state.Accountant.Total))
	binary.BigEndian.PutUint64(ab[8:], math.Float64bits(state.Accountant.Spent))
	payload.Write(ab[:])
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(state.Queries)))
	payload.Write(n[:])
	for _, q := range state.Queries {
		if err := transport.EncodeQuerySpec(&payload, q.Spec); err != nil {
			t.Fatal(err)
		}
		var sealed byte
		if q.Sealed {
			sealed = 1
		}
		payload.WriteByte(sealed)
		if err := transport.EncodeSnapshot(&payload, q.Snap); err != nil {
			t.Fatal(err)
		}
	}
	var file bytes.Buffer
	hdr := make([]byte, len(magic)+4+8)
	copy(hdr, magic)
	binary.BigEndian.PutUint32(hdr[len(magic):], 1)
	binary.BigEndian.PutUint64(hdr[len(magic)+4:], uint64(payload.Len()))
	file.Write(hdr)
	file.Write(payload.Bytes())
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(payload.Bytes(), castagnoli))
	file.Write(crc[:])

	got, err := Decode(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatalf("version-1 checkpoint refused: %v", err)
	}
	if *got.Accountant != (AccountantState{Total: 2.0, Spent: 1.9}) {
		t.Fatalf("accountant %+v", got.Accountant)
	}
	if len(got.Queries) != 3 {
		t.Fatalf("%d queries, want 3", len(got.Queries))
	}
	for i, q := range got.Queries {
		if q.Epochs != nil {
			t.Fatalf("query %d grew epoch state out of a v1 file", i)
		}
	}
}
