// Package hdr4me is a Go implementation of "Utility Analysis and Enhancement
// of LDP Mechanisms in High-Dimensional Space" (Duan, Ye, Hu — ICDE 2022):
// an analytical framework that predicts the utility of any local-
// differential-privacy mechanism in high-dimensional mean estimation without
// running an experiment, and HDR4ME, a one-off re-calibration of the
// collector-side aggregation that improves that utility without touching the
// mechanism.
//
// The package's center of gravity is the Session API: one pipeline object,
// built from functional options, that covers all three estimator families —
// the §III-B sampled-dimension mean protocol, Duchi et al.'s whole-tuple
// mechanism, and the §V-C frequency reducer — behind the same Estimator
// interface the TCP transport serves.
//
//	sess, _ := hdr4me.New(
//		hdr4me.WithMechanism(hdr4me.Piecewise()),
//		hdr4me.WithBudget(0.8),
//		hdr4me.WithDims(100, 100),
//		hdr4me.WithEnhance(hdr4me.DefaultEnhanceConfig(hdr4me.RegL1)),
//	)
//	res, _ := sess.Run(ctx, hdr4me.NewGaussianDataset(100_000, 100, 1))
//	// res.Naive is the calibrated aggregation, res.Enhanced the HDR4ME one.
//
// Sessions also ingest streaming traffic — Observe perturbs raw tuples
// user-side, AddReport accepts wire reports, AddReports batches them —
// and compose across shards: Snapshot copies a collector's state, Merge
// folds a peer's snapshot in, associatively. Run is context-aware and
// aborts promptly on cancellation.
//
// Ingest is built to scale with cores: every estimator family implements
// est.BatchAdder (AddReports accumulates a whole batch under one lock
// acquisition) over a lock-striped accumulator, each collector
// connection is pinned to its own stripe, and the wire decode path
// reuses per-connection scratch so the steady-state batch loop allocates
// nothing. Reads fold the stripes atomically in a fixed order, so
// striping is externally invisible — a single connection's ingest is
// bitwise-identical to the serial path. See the README's Performance
// section for measured numbers.
//
// The read path allocates only what its caller keeps. A naive, windowed,
// decayed or HDR4ME-enhanced estimate folds the stripes into pooled
// scratch and re-calibrates in place, so Estimate, WindowEstimate and
// Enhanced allocate just the vector they return. A served exchange
// allocates nothing on the collector: each estimator family writes its
// estimate, counts or enhanced estimate into a pooled vector, the
// SNAPSHOT reply encodes straight
// from a pooled fold, and every reply goes out in one Write from a
// pooled buffer. A client round trip then allocates exactly what it
// returns: one vector for Estimate, Counts, Enhanced, WindowEstimate and
// DecayedEstimate, the kind string and two vectors for a mean-family
// PullSnapshot. A checkpoint copies no accumulated state: frozen epochs
// are immutable (a late report rebuilds its epoch's snapshot), so the
// checkpoint shares them with the ring, the live epoch folds into pooled
// scratch, and the file streams out through a pooled 64 KiB buffer that
// computes the CRC on the way — about 1.8 KB per save at d = 1024,
// whether the ring holds 4 frozen epochs or 40.
//
// One collector serves many concurrent analytics: a Registry of named
// queries (each a QuerySpec-built estimator with an open → sealed →
// deleted lifecycle) behind a single TCP port, budget-gated by an
// Accountant that bounds the cumulative per-user ε across all of them.
// Clients route by name (CollectorClient.Query, WithQueryName) or open
// queries over the wire (CollectorClient.Open); un-routed legacy clients
// land on the query named "default". The same QuerySpec drives both
// sides: NewFromSpec builds a Session whose Report perturbs on the user's
// device while the collector's spec-built estimator aggregates.
//
// Collector state is durable: WithStateDir + Session.SaveCheckpoint /
// RestoreCheckpoint (and, for multi-query collectors,
// SaveCollectorState / RestoreCollectorState wired to the server's
// OnCheckpoint hook) persist every query's spec, lifecycle and folded
// snapshot plus the Accountant ledger into a versioned, CRC-guarded
// checkpoint file, written atomically on a WithCheckpointInterval
// cadence, on demand via the CHECKPOINT wire frame, and on graceful
// shutdown. Restores replay specs through the ordinary admission path —
// the same budget gating as live registrations — and reproduce the
// checkpointed estimates bitwise; reports accepted after the last
// checkpoint are lost by design. See the README's "Durability &
// restarts" section.
//
// Collection is continual, not just one-shot: any epoch option
// (WithEpochDuration, WithEpochEvery, WithWindow, WithDecay,
// WithLateness, WithEpochRetain) wraps the session's estimator in an
// epoch ring — the live epoch accumulates as before and rotation
// (wall-clock, report-count, explicit Rotate, or the ROTATE wire frame)
// freezes it into a bounded ring of per-epoch snapshots. On top of the
// ring, WindowEstimate answers over the last W epochs exactly as a
// one-shot collection fed only those epochs' reports would, and
// DecayedEstimate forgets old traffic smoothly (epoch k behind the live
// one weighted gamma^k). Late reports tagged with a frozen epoch (the
// EPOCH wire frame, Session-side AddLate) follow a LatenessPolicy. For
// multi-query collectors, NewEpochQueryRegistry builds every query as a
// ring and RotateCollector advances them in lockstep; with an
// EpochConfig.Horizon the Accountant switches to per-epoch budget
// renewal — each query holds horizon×ε and a deleted query's charge
// decays away one epoch at a time, bounding any user's spend within any
// window of horizon consecutive epochs. Rings checkpoint and restore
// with everything else. See the README's "Continual collection" section.
//
// The transport is failure-hardened: the collector force-closes
// connections that stall mid-frame or stop draining replies
// (CollectorServer.IdleTimeout/WriteTimeout), caps concurrent
// connections and in-flight reports (MaxConns/MaxInflight), and sheds
// the excess with a retryable NACK — ErrCollectorOverloaded on the
// client — while admitted traffic stays responsive. A buffered client
// opened WithReconnect survives connection loss with exactly-once
// delivery: a HELLO-frame session token plus per-session batch sequence
// numbers let it redial with backoff and re-ship exactly the batches
// the collector never applied, the collector deduplicating by (token,
// sequence). Every client exchange is bounded by
// CollectorClient.SetTimeout; the client's own exchanges (Send,
// SendBatch, Estimate, Counts, Enhanced, PullSnapshot, PushSnapshot,
// Checkpoint) also have a ...Context variant, while Query handles, Open,
// QueryInfo, Hello and Negotiate have none. Failure counters
// are served by CollectorServer.Stats (and ldpcollect's
// /debug/collector endpoint). Under test, internal/transport/faultconn
// injects resets, stalls, partial writes and latency, and its proxy
// subpackage cuts live links — the fault the crash-recovery end-to-end
// check also drives. See the README's "Failure model & recovery"
// section.
//
// The wire grammar itself is versioned behind the transport.FrameCodec
// interface: CodecV1 speaks the classic row-oriented frames, CodecV2
// adds the columnar CBATCH frame — one header per batch, dimension
// columns as delta-varint RLE, all float64 values as one contiguous
// little-endian run the collector bulk-copies into its stripe lanes —
// and falls back to v1 for ragged batches. Clients negotiate the
// version on the HELLO exchange (WithProtocolVersion /
// WithClientProtocolVersion pin it; reconnecting buffered clients
// negotiate automatically) and un-negotiated connections stay v1, so
// every legacy peer keeps working unchanged. On the collector, each wire
// body has one parser: every 0x01/0x05 report frame — top-level,
// EPOCH-wrapped, inside a BATCH, or drained unread from a shed batch —
// is measured by one length function and decoded by one decoder, every
// 0x06 BATCH body goes through one zero-alloc windowed decoder, and the
// CBATCH header and the HELLO request and reply each have one codec.
// The transport fuzzers check the served readers against the reference
// decoders (readReportBody, readVecReportBody, CodecV1.DecodeBatch).
// On the client, one writer picks a batch's grammar: BufferedClient and
// CodecV2 copy reports into one staged batch (flat dims and values with
// per-report end offsets), sent as a CBATCH when the connection speaks
// v2 and the batch is rectangular, and as a 0x06 BATCH otherwise.
// SendBatch and the query handles write through one method that picks
// CodecV2 or CodecV1 by protocol.
// See the README's "Protocol versions & negotiation" section.
//
// The invariants all of the above rests on are machine-enforced:
// cmd/hdrvet, a go vet -vettool multichecker built on the
// dependency-free go/analysis mirror in internal/analyzers, fails the
// build when a transport handler replies before consuming a frame body
// (framedrain), a float accumulator bypasses the mathx Kahan lanes
// (kahansum), blocking I/O happens under a mutex (lockhold), a frame
// byte is duplicated or lacks encoder/decoder/fuzz coverage
// (wireframe), or a codec/fold path ranges over a map unsorted
// (rangemap). Three flow-sensitive analyzers run on the SSA-lite CFG
// layer in internal/analyzers/dataflow: ldpflow fails the build when a
// raw tuple value can reach an output sink (fmt/log, a transport
// encoder, a persist path) without passing an LDP randomizer — the
// privacy promise as a dataflow property; nilness catches guaranteed
// nil dereferences and degenerate nil checks; lockorder builds the
// global mutex-acquisition order graph and reports cycles and locks
// held at return. testonly, which needs the whole program and so runs
// only in standalone hdrvet, reports an internal export that no non-test
// code uses. Intentional exceptions are annotated in source as
// "//hdrvet:ignore <analyzer> -- <reason>", reason mandatory, and
// audited by hdrvet -suppressions. See the README's "Static analysis &
// enforced invariants" section.
//
// Session.Run is the only way to run a collection round. It shares one
// worker loop (internal/est.Round) with the paper-reproduction harness,
// cmd/hdrbench: per-worker shards, per-worker random streams, merge in
// worker order. The pre-Session Simulate, SimulateAllocated,
// SimulateDuchiMD and SimulateFreq wrappers are gone, and the README's
// "Migrating from the flat facade" table maps each one to its Session
// options.
package hdr4me
