package hdr4me

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/hdr4me/hdr4me/internal/epoch"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/transport"
)

// TestQueriesBesideIngestMatchSnapshot runs naive, windowed, enhanced,
// count and snapshot queries — in process and over the wire — beside
// concurrent ingest into a sibling query, and checks that every answer
// about the quiet queries is bit-identical to the one computed from
// their Snapshot() on a fresh estimator. Queries fold into pooled
// scratch shared by every estimator in the process, so a scratch array
// reused while a result still referenced it shows up here as a wrong
// bit (and under -race as a race).
func TestQueriesBesideIngestMatchSnapshot(t *testing.T) {
	reg, err := NewEpochQueryRegistry(nil, EpochConfig{Retain: 4})
	if err != nil {
		t.Fatal(err)
	}
	specs := []QuerySpec{
		{Name: "mean", Kind: KindMean, Mech: "piecewise", Eps: 0.8, D: 64, M: 8},
		{Name: "freq", Kind: KindFreq, Mech: "squarewave", Eps: 1, Cards: []int{3, 5, 4}, M: 2},
	}
	const window = 3

	// want is what each quiet query must answer, from its snapshots.
	want := map[string]queryAnswers{}
	for i, spec := range specs {
		q, err := reg.Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		ring := q.Estimator().(*epoch.Ring)
		for ep := 0; ep < 3; ep++ {
			fillQuery(t, spec, q, uint64(10*i+ep), 300)
			if ep < 2 {
				ring.Rotate()
			}
		}
		snap := ring.Snapshot()
		fresh := freshFrom(t, spec, snap)
		enh, err := fresh.(est.Enhancer).Enhanced()
		if err != nil {
			t.Fatal(err)
		}
		wsnap, err := ring.WindowSnapshot(window)
		if err != nil {
			t.Fatal(err)
		}
		win, err := freshFrom(t, spec, est.Snapshot{}).(*est.Family).EstimateFromInto(nil, wsnap)
		if err != nil {
			t.Fatal(err)
		}
		want[spec.Name] = queryAnswers{estimate: fresh.Estimate(), enhanced: enh, window: win, counts: fresh.Counts(), snap: snap}
	}

	// The busy query takes reports and rotations for the whole run.
	busySpec := QuerySpec{Name: "busy", Kind: KindMean, Mech: "piecewise", Eps: 0.8, D: 96, M: 8}
	busy, err := reg.Open(busySpec)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewRegistryServer(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const workers, rounds = 3, 20
	stop := make(chan struct{})
	var ingest sync.WaitGroup
	ingest.Add(1)
	go func() {
		defer ingest.Done()
		for seed := uint64(100); ; seed++ {
			select {
			case <-stop:
				return
			default:
			}
			fillQuery(t, busySpec, busy, seed, 64)
			if seed%4 == 0 {
				busy.Estimator().(*epoch.Ring).Rotate()
			}
		}
	}()

	errs := make(chan error, workers)
	var queries sync.WaitGroup
	for w := 0; w < workers; w++ {
		queries.Add(1)
		go func() {
			defer queries.Done()
			cl, err := transport.Dial(addr.String())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for r := 0; r < rounds; r++ {
				for _, spec := range specs {
					if err := checkAnswers(cl, reg, spec.Name, busySpec.Name, window, want[spec.Name]); err != nil {
						errs <- err
						return
					}
				}
				// Churn the server's pools with a different shape too.
				if _, err := cl.Query(busySpec.Name).WindowEstimate(window); err != nil {
					errs <- err
					return
				}
				if _, err := cl.Query(busySpec.Name).PullSnapshot(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	queries.Wait()
	close(stop)
	ingest.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// queryAnswers is what a quiet query must answer.
type queryAnswers struct {
	estimate, enhanced, window []float64
	counts                     []int64
	snap                       Snapshot
}

// checkAnswers asks query name every question in process and over the
// wire and compares each answer bitwise with want. Every answer is kept
// while a query on the busy ring (a different shape) runs in between, and
// all are compared only at the end: an answer aliasing pooled scratch
// would by then hold the busy query's fold.
func checkAnswers(cl *transport.Client, reg *Registry, name, busy string, window int, want queryAnswers) error {
	ring := reg.Get(name).Estimator().(*epoch.Ring)
	churn := reg.Get(busy).Estimator().(*epoch.Ring)
	q := cl.Query(name)
	floats := []struct {
		what string
		want []float64
		get  func() ([]float64, error)
		got  []float64
	}{
		{what: "estimate", want: want.estimate, get: func() ([]float64, error) { return ring.Estimate(), nil }},
		{what: "enhanced", want: want.enhanced, get: ring.Enhanced},
		{what: "window", want: want.window, get: func() ([]float64, error) { return ring.WindowEstimate(window) }},
		{what: "wire estimate", want: want.estimate, get: q.Estimate},
		{what: "wire enhanced", want: want.enhanced, get: q.Enhanced},
		{what: "wire window", want: want.window, get: func() ([]float64, error) { return q.WindowEstimate(window) }},
	}
	snaps := []struct {
		what string
		get  func() (Snapshot, error)
		got  Snapshot
	}{
		{what: "snapshot", get: func() (Snapshot, error) { return ring.Snapshot(), nil }},
		{what: "wire snapshot", get: q.PullSnapshot},
	}
	var err error
	for i := range floats {
		if floats[i].got, err = floats[i].get(); err != nil {
			return fmt.Errorf("%s %s: %v", name, floats[i].what, err)
		}
		if _, err := churn.WindowEstimate(window); err != nil {
			return err
		}
		if _, err := churn.Enhanced(); err != nil {
			return err
		}
	}
	for i := range snaps {
		if snaps[i].got, err = snaps[i].get(); err != nil {
			return fmt.Errorf("%s %s: %v", name, snaps[i].what, err)
		}
		churn.Snapshot()
	}
	counts, err := q.Counts()
	if err != nil {
		return fmt.Errorf("%s wire counts: %v", name, err)
	}

	for _, f := range floats {
		if err := sameFloats(f.got, f.want); err != nil {
			return fmt.Errorf("%s %s: %v", name, f.what, err)
		}
	}
	if err := sameInts(counts, want.counts); err != nil {
		return fmt.Errorf("%s wire counts: %v", name, err)
	}
	for _, sn := range snaps {
		snap := sn.got
		if snap.Kind != want.snap.Kind || snap.Dims != want.snap.Dims || fmt.Sprint(snap.Cards) != fmt.Sprint(want.snap.Cards) {
			return fmt.Errorf("%s %s: header %s/%d/%v, want %s/%d/%v", name, sn.what,
				snap.Kind, snap.Dims, snap.Cards, want.snap.Kind, want.snap.Dims, want.snap.Cards)
		}
		if err := sameFloats(snap.Sums, want.snap.Sums); err != nil {
			return fmt.Errorf("%s %s sums: %v", name, sn.what, err)
		}
		if err := sameInts(snap.Counts, want.snap.Counts); err != nil {
			return fmt.Errorf("%s %s counts: %v", name, sn.what, err)
		}
	}
	return nil
}

// fillQuery adds n reports perturbed from seeded tuples to q.
func fillQuery(t *testing.T, spec QuerySpec, q *est.Query, seed uint64, n int) {
	s, err := NewFromSpec(spec, WithSeed(seed))
	if err != nil {
		t.Error(err)
		return
	}
	rng := NewRNG(seed)
	reps := make([]Report, n)
	for i := range reps {
		var tup Tuple
		if spec.Kind == KindFreq {
			for _, c := range spec.Cards {
				tup.Cats = append(tup.Cats, rng.IntN(c))
			}
		} else {
			for j := 0; j < spec.D; j++ {
				tup.Values = append(tup.Values, 2*rng.Float64()-1)
			}
		}
		if reps[i], err = s.Report(tup); err != nil {
			t.Error(err)
			return
		}
	}
	if acc, err := q.AddReports(reps); acc != n {
		t.Errorf("%s: accepted %d of %d: %v", spec.Name, acc, n, err)
	}
}

// freshFrom builds an empty estimator for spec and merges snap into it
// (nothing when snap is empty).
func freshFrom(t *testing.T, spec QuerySpec, snap Snapshot) Estimator {
	t.Helper()
	e, err := estimatorForSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Kind != "" {
		if err := e.Merge(snap); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func sameFloats(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			return fmt.Errorf("entry %d: %v, want %v", j, got[j], want[j])
		}
	}
	return nil
}

func sameInts(got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			return fmt.Errorf("entry %d: %d, want %d", j, got[j], want[j])
		}
	}
	return nil
}
