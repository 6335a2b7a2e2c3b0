// Command crashcheck is the wire-level driver of the crash-recovery e2e
// (scripts/crash_recovery_e2e.sh). It talks to a running ldpcollect
// started with -state-dir and the three e2e queries (one per estimator
// family), and exits non-zero when an assertion fails:
//
//	crashcheck -mode seed -addr HOST:PORT -dir DIR
//	    stream deterministic reports into all three queries, pull one
//	    snapshot per query, save the snapshots (wire encoding) under
//	    DIR, then force a CHECKPOINT (0x0B) so the state is on disk.
//	crashcheck -mode verify -addr HOST:PORT -dir DIR
//	    after a kill -9 + restart: pull each query's snapshot again and
//	    require it bitwise-equal to the saved one, then require the
//	    restored Accountant to reject an over-budget OPENQUERY.
//	crashcheck -mode fresh -addr HOST:PORT
//	    after a refused (corrupted) checkpoint: require every query to
//	    have zero accumulated reports — fresh start, no partial restore.
//	crashcheck -mode corrupt -file PATH
//	    flip one payload byte of the checkpoint file so its CRC fails.
//	crashcheck -mode flakyfold -addr HOST:PORT
//	    against a collector with the flk/cln query pair: stream 4000
//	    deterministic reports into "flk" through a fault-injection proxy
//	    whose links are cut twice mid-stream (the reconnecting buffered
//	    client must resume its replay session and re-ship only unacked
//	    batches), stream the identical reports into "cln" over a clean
//	    connection, and require the two queries' counts bitwise-equal
//	    (and estimates within stripe-fold tolerance) — exactly-once
//	    delivery through real failures.
//	crashcheck -mode epochseed -addr HOST:PORT -dir DIR
//	    against a continual (-window/-horizon) collector: stream reports
//	    across three epochs driven by ROTATE wire frames, save each
//	    query's live epoch id, window/decayed estimates and live
//	    snapshot under DIR, force a CHECKPOINT — then rotate once more
//	    and stream uncheckpointed reports, so the kill -9 that follows
//	    lands mid-rotation with work the restore must NOT resurrect.
//	crashcheck -mode epochverify -addr HOST:PORT -dir DIR
//	    after the kill -9 + restart: require each query's ring back at
//	    the checkpointed epoch with window/decayed estimates and live
//	    snapshot bitwise-equal to the saved ones, a late EPOCH-tagged
//	    report still bucketed into its frozen epoch, and the renewed
//	    budget ledger still rejecting an over-horizon OPENQUERY.
package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"

	hdr4me "github.com/hdr4me/hdr4me"
	"github.com/hdr4me/hdr4me/internal/transport"
	"github.com/hdr4me/hdr4me/internal/transport/faultconn/proxy"
)

// e2eUsers is how many reports seed streams into each query.
const e2eUsers = 500

// e2eSpecs are the three queries of the e2e — one per estimator family.
// They must match the -query flags in scripts/crash_recovery_e2e.sh, and
// their ε must sum to 1.9 so the 2.0 total leaves room for nothing
// larger than 0.1 (the over-budget probe below asks for 0.5).
func e2eSpecs() []hdr4me.QuerySpec {
	return []hdr4me.QuerySpec{
		{Name: "mq", Kind: hdr4me.KindMean, Mech: "piecewise", Eps: 0.8, D: 8},
		{Name: "wq", Kind: hdr4me.KindWholeTuple, Eps: 0.6, D: 4},
		{Name: "fq", Kind: hdr4me.KindFreq, Mech: "squarewave", Eps: 0.5, Cards: []int{3, 4}, M: 2},
	}
}

func main() {
	mode := flag.String("mode", "", "seed | verify | fresh | corrupt")
	addr := flag.String("addr", "", "collector address (seed/verify/fresh)")
	dir := flag.String("dir", "", "directory for saved pre-kill snapshots (seed/verify)")
	file := flag.String("file", "", "checkpoint file to corrupt (corrupt)")
	flag.Parse()

	var err error
	switch *mode {
	case "seed":
		err = seed(*addr, *dir)
	case "verify":
		err = verify(*addr, *dir)
	case "fresh":
		err = fresh(*addr)
	case "corrupt":
		err = corrupt(*file)
	case "epochseed":
		err = epochSeed(*addr, *dir)
	case "epochverify":
		err = epochVerify(*addr, *dir)
	case "flakyfold":
		err = flakyFold(*addr)
	default:
		err = fmt.Errorf("unknown -mode %q", *mode)
	}
	if err != nil {
		log.Fatalf("crashcheck %s: %v", *mode, err)
	}
	fmt.Printf("crashcheck %s: ok\n", *mode)
}

// tupleFor builds user i's deterministic raw tuple for spec.
func tupleFor(spec hdr4me.QuerySpec, i int) hdr4me.Tuple {
	if spec.Kind == hdr4me.KindFreq {
		cats := make([]int, len(spec.Cards))
		for j, c := range spec.Cards {
			cats[j] = (i + j) % c
		}
		return hdr4me.Tuple{Cats: cats}
	}
	vals := make([]float64, spec.D)
	for j := range vals {
		vals[j] = float64((i+j)%21)/10 - 1 // deterministic values in [−1, 1]
	}
	return hdr4me.Tuple{Values: vals}
}

// seed streams e2eUsers deterministic reports into each query over
// routed BATCH frames, saves one snapshot per query, and checkpoints.
func seed(addr, dir string) error {
	cl, err := hdr4me.DialCollector(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	for _, spec := range e2eSpecs() {
		sess, err := hdr4me.NewFromSpec(spec, hdr4me.WithSeed(42))
		if err != nil {
			return fmt.Errorf("query %q: %w", spec.Name, err)
		}
		reps := make([]hdr4me.Report, 0, e2eUsers)
		for i := 0; i < e2eUsers; i++ {
			rep, err := sess.Report(tupleFor(spec, i))
			if err != nil {
				return fmt.Errorf("query %q: %w", spec.Name, err)
			}
			reps = append(reps, rep)
		}
		accepted, err := cl.Query(spec.Name).SendBatch(reps)
		if err != nil {
			return fmt.Errorf("query %q: %w", spec.Name, err)
		}
		if accepted != len(reps) {
			return fmt.Errorf("query %q: collector accepted %d of %d reports", spec.Name, accepted, len(reps))
		}
	}
	// Traffic is quiesced (every batch acknowledged): the snapshots we
	// pull now and the checkpoint the collector writes next fold the
	// same state, so the post-restart pull must reproduce these bytes.
	for _, spec := range e2eSpecs() {
		if err := pullTo(cl, spec.Name, filepath.Join(dir, spec.Name+".snap")); err != nil {
			return err
		}
	}
	if err := cl.Checkpoint(); err != nil {
		return fmt.Errorf("CHECKPOINT frame: %w", err)
	}
	return nil
}

// pullTo fetches the named query's snapshot and writes its wire encoding
// to path.
func pullTo(cl *hdr4me.CollectorClient, name, path string) error {
	snap, err := cl.Query(name).PullSnapshot()
	if err != nil {
		return fmt.Errorf("query %q: pull snapshot: %w", name, err)
	}
	var buf bytes.Buffer
	if err := transport.EncodeSnapshot(&buf, snap); err != nil {
		return fmt.Errorf("query %q: encode snapshot: %w", name, err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// verify compares each restored query's snapshot bitwise against the
// pre-kill bytes, then probes the restored Accountant with an
// over-budget OPENQUERY.
func verify(addr, dir string) error {
	cl, err := hdr4me.DialCollector(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	for _, spec := range e2eSpecs() {
		want, err := os.ReadFile(filepath.Join(dir, spec.Name+".snap"))
		if err != nil {
			return err
		}
		snap, err := cl.Query(spec.Name).PullSnapshot()
		if err != nil {
			return fmt.Errorf("query %q: pull snapshot: %w", spec.Name, err)
		}
		var got bytes.Buffer
		if err := transport.EncodeSnapshot(&got, snap); err != nil {
			return fmt.Errorf("query %q: encode snapshot: %w", spec.Name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			return fmt.Errorf("query %q: restored snapshot differs from pre-kill snapshot (%d vs %d bytes)",
				spec.Name, got.Len(), len(want))
		}
		fmt.Printf("query %q: restored snapshot bitwise-equal to pre-kill pull (%d bytes)\n", spec.Name, got.Len())
	}
	// The three queries spend 1.9 of the 2.0 total; a restored ledger
	// must reject this 0.5 exactly as the pre-crash collector would.
	_, err = cl.Open(hdr4me.QuerySpec{Name: "overbudget", Kind: hdr4me.KindMean, Mech: "laplace", Eps: 0.5, D: 2})
	if err == nil {
		return fmt.Errorf("restored accountant accepted an over-budget OPENQUERY (ε ledger was not restored)")
	}
	if !strings.Contains(err.Error(), "budget") {
		return fmt.Errorf("over-budget OPENQUERY failed for the wrong reason: %v", err)
	}
	fmt.Printf("over-budget OPENQUERY rejected by restored accountant: %v\n", err)
	return nil
}

// fresh asserts the collector rebuilt every query empty — the corrupted
// checkpoint was refused whole, not partially restored.
func fresh(addr string) error {
	cl, err := hdr4me.DialCollector(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	for _, spec := range e2eSpecs() {
		counts, err := cl.Query(spec.Name).Counts()
		if err != nil {
			return fmt.Errorf("query %q: counts: %w", spec.Name, err)
		}
		for j, c := range counts {
			if c != 0 {
				return fmt.Errorf("query %q: dimension %d has %d reports after a refused checkpoint (partial restore?)",
					spec.Name, j, c)
			}
		}
	}
	return nil
}

// ---- continual-collection phase (epochseed / epochverify) -------------------

// epochSpecs are the two queries of the continual e2e phase. They must
// match the -query flags of the epoch collector in
// scripts/crash_recovery_e2e.sh. With -total-eps 2.0 and -horizon 4 each
// holds 4·0.2 = 0.8 of the budget (1.6 together), so the over-horizon
// probe below (another ε=0.2, +0.8) must be rejected.
func epochSpecs() []hdr4me.QuerySpec {
	return []hdr4me.QuerySpec{
		{Name: "em", Kind: hdr4me.KindMean, Mech: "piecewise", Eps: 0.2, D: 8},
		{Name: "ef", Kind: hdr4me.KindFreq, Mech: "squarewave", Eps: 0.2, Cards: []int{3, 4}, M: 2},
	}
}

// epochWindows are the window widths whose estimates epochseed saves and
// epochverify replays: together they fold every retained epoch, so
// bitwise equality means the whole restored ring matches.
var epochWindows = []int{1, 2, 3}

const epochDecay = 0.5

// streamEpoch sends e2eUsers/5 deterministic reports into each query,
// seeded per epoch so every epoch's traffic is distinct.
func streamEpoch(cl *hdr4me.CollectorClient, epochSeed uint64) error {
	for _, spec := range epochSpecs() {
		sess, err := hdr4me.NewFromSpec(spec, hdr4me.WithSeed(42+epochSeed))
		if err != nil {
			return fmt.Errorf("query %q: %w", spec.Name, err)
		}
		n := e2eUsers / 5
		reps := make([]hdr4me.Report, 0, n)
		for i := 0; i < n; i++ {
			rep, err := sess.Report(tupleFor(spec, i+int(epochSeed)))
			if err != nil {
				return fmt.Errorf("query %q: %w", spec.Name, err)
			}
			reps = append(reps, rep)
		}
		accepted, err := cl.Query(spec.Name).SendBatch(reps)
		if err != nil {
			return fmt.Errorf("query %q: %w", spec.Name, err)
		}
		if accepted != len(reps) {
			return fmt.Errorf("query %q: collector accepted %d of %d reports", spec.Name, accepted, len(reps))
		}
	}
	return nil
}

// ringObservation is everything epochverify compares bitwise: the live
// epoch id, the window estimates, the decayed estimate, and the live
// epoch's snapshot encoding.
func ringObservation(cl *hdr4me.CollectorClient, name string) ([]byte, error) {
	var buf bytes.Buffer
	q := cl.Query(name)
	info, err := cl.QueryInfo(name)
	if err != nil {
		return nil, fmt.Errorf("query %q: info: %w", name, err)
	}
	if !info.Epochs {
		return nil, fmt.Errorf("query %q: collector is not continual (epoch flags missing?)", name)
	}
	if err := binary.Write(&buf, binary.BigEndian, info.Epoch); err != nil {
		return nil, err
	}
	for _, w := range epochWindows {
		est, err := q.WindowEstimate(w)
		if err != nil {
			return nil, fmt.Errorf("query %q: window %d: %w", name, w, err)
		}
		if err := binary.Write(&buf, binary.BigEndian, est); err != nil {
			return nil, err
		}
	}
	dec, err := q.DecayedEstimate(epochDecay)
	if err != nil {
		return nil, fmt.Errorf("query %q: decayed estimate: %w", name, err)
	}
	if err := binary.Write(&buf, binary.BigEndian, dec); err != nil {
		return nil, err
	}
	snap, err := q.PullSnapshot()
	if err != nil {
		return nil, fmt.Errorf("query %q: pull snapshot: %w", name, err)
	}
	if err := transport.EncodeSnapshot(&buf, snap); err != nil {
		return nil, fmt.Errorf("query %q: encode snapshot: %w", name, err)
	}
	return buf.Bytes(), nil
}

// epochSeed drives the continual collector across three epochs, saves
// each ring's observable state, checkpoints — then rotates once more and
// streams reports that never hit disk, so the kill -9 lands mid-rotation.
func epochSeed(addr, dir string) error {
	cl, err := hdr4me.DialCollector(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	// Three epochs of distinct traffic: stream, rotate, stream, rotate,
	// stream — live epoch 2 with frozen epochs {0, 1}.
	for e := uint64(0); e < 3; e++ {
		if e > 0 {
			for _, spec := range epochSpecs() {
				next, err := cl.Query(spec.Name).Rotate()
				if err != nil {
					return fmt.Errorf("query %q: rotate: %w", spec.Name, err)
				}
				if next != e {
					return fmt.Errorf("query %q: rotated to epoch %d, want %d", spec.Name, next, e)
				}
			}
		}
		if err := streamEpoch(cl, e); err != nil {
			return err
		}
	}
	for _, spec := range epochSpecs() {
		obs, err := ringObservation(cl, spec.Name)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, spec.Name+".ring"), obs, 0o644); err != nil {
			return err
		}
	}
	if err := cl.Checkpoint(); err != nil {
		return fmt.Errorf("CHECKPOINT frame: %w", err)
	}
	// Mid-rotation crash setup: one more rotation and a burst of reports,
	// none of it checkpointed. The restore must come back at epoch 2 —
	// resurrecting any of this would mean the checkpoint lied.
	for _, spec := range epochSpecs() {
		if _, err := cl.Query(spec.Name).Rotate(); err != nil {
			return fmt.Errorf("query %q: post-checkpoint rotate: %w", spec.Name, err)
		}
	}
	return streamEpoch(cl, 3)
}

// epochVerify asserts the restored rings are bitwise-identical to the
// checkpointed observation, late reports still bucket into frozen
// epochs, and the renewal ledger still gates admissions.
func epochVerify(addr, dir string) error {
	cl, err := hdr4me.DialCollector(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	for _, spec := range epochSpecs() {
		want, err := os.ReadFile(filepath.Join(dir, spec.Name+".ring"))
		if err != nil {
			return err
		}
		got, err := ringObservation(cl, spec.Name)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("query %q: restored ring differs from checkpointed state (%d vs %d bytes)",
				spec.Name, len(got), len(want))
		}
		info, err := cl.QueryInfo(spec.Name)
		if err != nil {
			return err
		}
		if info.Epoch != 2 {
			return fmt.Errorf("query %q: restored at epoch %d, want the checkpointed epoch 2 "+
				"(the uncheckpointed rotation must not survive)", spec.Name, info.Epoch)
		}
		fmt.Printf("query %q: restored ring bitwise-equal at epoch %d (%d bytes)\n", spec.Name, info.Epoch, len(got))
	}
	// Late-report path: a report tagged with frozen epoch 1 must still
	// bucket (default lateness policy) after the restore.
	spec := epochSpecs()[0]
	sess, err := hdr4me.NewFromSpec(spec, hdr4me.WithSeed(7))
	if err != nil {
		return err
	}
	rep, err := sess.Report(tupleFor(spec, 1))
	if err != nil {
		return err
	}
	if err := cl.Query(spec.Name).SendEpoch(1, rep); err != nil {
		return fmt.Errorf("query %q: late report for frozen epoch 1 rejected after restore: %w", spec.Name, err)
	}
	fmt.Printf("query %q: late report bucketed into restored frozen epoch 1\n", spec.Name)
	// The two queries hold 1.6 of the 2.0 budget over the 4-epoch
	// horizon; another ε=0.2 would hold 2.4 and must be rejected by the
	// restored renewal ledger.
	_, err = cl.Open(hdr4me.QuerySpec{Name: "overhorizon", Kind: hdr4me.KindMean, Mech: "laplace", Eps: 0.2, D: 2})
	if err == nil {
		return fmt.Errorf("restored renewal ledger accepted an over-horizon OPENQUERY")
	}
	if !strings.Contains(err.Error(), "budget") {
		return fmt.Errorf("over-horizon OPENQUERY failed for the wrong reason: %v", err)
	}
	fmt.Printf("over-horizon OPENQUERY rejected by restored renewal ledger: %v\n", err)
	return nil
}

// ---- flaky-network phase (flakyfold) ----------------------------------------

// flakyUsers reports stream through the flaky path in flakyBatch-sized
// BATCH frames — enough batches that both link cuts land mid-stream
// with unacked batches in flight.
const (
	flakyUsers = 4000
	flakyBatch = 64
)

// flakySpec builds one of the flaky-phase query pair. The two specs must
// match the -query flags of the phase-7 collector in
// scripts/crash_recovery_e2e.sh, and differ only by name: identical
// parameters, so the identical report stream must fold to identical
// state on both.
func flakySpec(name string) hdr4me.QuerySpec {
	return hdr4me.QuerySpec{Name: name, Kind: hdr4me.KindMean, Mech: "piecewise", Eps: 0.4, D: 8}
}

// flakyFold streams one deterministic report set into query "flk"
// through a twice-cut proxy (reconnecting buffered client, replay
// session) and into query "cln" over a clean connection, then requires
// both queries' counts bitwise-equal and estimates within stripe-fold
// tolerance: the failures must have cost nothing and double-counted
// nothing.
func flakyFold(addr string) error {
	// Perturb once, send twice: any divergence is the transport's fault,
	// not the mechanism's randomness.
	sess, err := hdr4me.NewFromSpec(flakySpec("flk"), hdr4me.WithSeed(42))
	if err != nil {
		return err
	}
	reps := make([]hdr4me.Report, flakyUsers)
	for i := range reps {
		if reps[i], err = sess.Report(tupleFor(flakySpec("flk"), i)); err != nil {
			return err
		}
	}

	// Flaky path: the buffered client dials the proxy, so every redial
	// goes back through it; the cuts land while batches are unacked.
	px, err := proxy.New(addr)
	if err != nil {
		return err
	}
	defer px.Close()
	bc, err := hdr4me.DialCollectorBuffered(px.Addr(),
		hdr4me.WithBatchSize(flakyBatch), hdr4me.WithQueryName("flk"),
		hdr4me.WithReconnect(nil), hdr4me.WithReconnectLimit(20))
	if err != nil {
		return err
	}
	for i, rep := range reps {
		if i == flakyUsers/3 || i == 2*flakyUsers/3 {
			px.CutLinks()
		}
		if err := bc.Add(rep); err != nil {
			return fmt.Errorf("flaky path: Add at report %d: %w", i, err)
		}
	}
	if err := bc.Close(); err != nil {
		return fmt.Errorf("flaky path: close: %w", err)
	}
	if got := bc.Accepted(); got != flakyUsers {
		return fmt.Errorf("flaky path: accepted %d of %d reports", got, flakyUsers)
	}
	if bc.Reconnects() < 1 {
		return fmt.Errorf("flaky path: no reconnects despite two cut links — the faults never landed")
	}
	fmt.Printf("flaky path: %d reports delivered through %d reconnects (%d batches replayed)\n",
		bc.Accepted(), bc.Reconnects(), bc.Replayed())

	// Clean path: the same reports, one direct connection.
	cl, err := hdr4me.DialCollector(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	accepted, err := cl.Query("cln").SendBatch(reps)
	if err != nil {
		return fmt.Errorf("clean path: %w", err)
	}
	if accepted != flakyUsers {
		return fmt.Errorf("clean path: accepted %d of %d reports", accepted, flakyUsers)
	}

	// Exactly-once, proven bitwise: counts and estimates of the two
	// queries must be identical.
	flkCounts, err := cl.Query("flk").Counts()
	if err != nil {
		return err
	}
	clnCounts, err := cl.Query("cln").Counts()
	if err != nil {
		return err
	}
	if len(flkCounts) != len(clnCounts) {
		return fmt.Errorf("count vectors differ in length: %d vs %d", len(flkCounts), len(clnCounts))
	}
	for j := range flkCounts {
		if flkCounts[j] != clnCounts[j] {
			return fmt.Errorf("dimension %d: flaky path counted %d, clean path %d (lost or doubled reports)",
				j, flkCounts[j], clnCounts[j])
		}
	}
	// Estimates: each reconnection lands on a fresh ingest stripe
	// (est.Stripes assigns lanes round-robin per connection), so the
	// flaky fold's cross-stripe additions associate differently than the
	// clean single-stripe fold — a few ULPs, never more (the counts
	// above already proved not one report was lost or doubled).
	flkEst, err := cl.Query("flk").Estimate()
	if err != nil {
		return err
	}
	clnEst, err := cl.Query("cln").Estimate()
	if err != nil {
		return err
	}
	for j := range flkEst {
		if d := math.Abs(flkEst[j] - clnEst[j]); d > 1e-9 {
			return fmt.Errorf("dimension %d: flaky estimate %g vs clean %g (|Δ|=%g exceeds stripe-fold tolerance)",
				j, flkEst[j], clnEst[j], d)
		}
	}
	fmt.Printf("flaky and clean folds agree across %d dimensions (counts exact, estimates within fold tolerance)\n",
		len(flkCounts))
	return nil
}

// corrupt flips one byte in the middle of the checkpoint payload, so the
// CRC check must refuse the file.
func corrupt(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) < 24 {
		return fmt.Errorf("%s: too short (%d bytes) to be a checkpoint", path, len(b))
	}
	b[len(b)/2] ^= 0xFF
	return os.WriteFile(path, b, 0o644)
}
