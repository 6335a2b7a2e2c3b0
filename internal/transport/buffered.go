package transport

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"github.com/hdr4me/hdr4me/internal/est"
)

// Defaults and bounds for BufferedClient.
const (
	defaultBatchSize = 256
	// defaultMaxPending bounds how many BATCH frames may be in flight
	// before the client drains their acks. Each ack is 5 bytes, so this
	// stays far below any socket buffer — pipelining without the
	// write-write deadlock of never reading. The bound also sets how long
	// a CPU-bound producer runs between drains, and so how often it gives
	// up its core to the other goroutines of its process. The bound
	// scales with the producer's report rate to keep that interval: 32
	// frames held it at the per-value kernels' rate, 40 at the batch
	// kernels', 48 at the one-pass report's (Floyd sampling into the
	// report's dims, perturbing from the tuple), and 56 once the
	// Piecewise batch kernel stopped re-checking each value. Below it,
	// query latency beside two saturating producers sits on the edge
	// between served-at-once and served-after-a-drain and flips run to
	// run: with the one-pass report, pipeline-hd's median Enhanced
	// latency read 29% above the two-pass report's at 40 frames (5 pairs
	// of 30 s on a 2-vCPU host) and 2.6% above it at 48 (10 alternating
	// pairs of 50 s); without the re-check it read 40-65% above at 48
	// (two sets of 5 alternating pairs of 50 s), and 0.086 ms against
	// 0.30 ms at 56, with the median ack at 9.1 ms against 8.1 ms (10
	// alternating pairs of 50 s).
	defaultMaxPending = 56

	// Retry pacing: shed batches and reconnect attempts back off
	// exponentially from retryBaseDelay to retryMaxDelay, jittered so a
	// fleet of clients does not retry in lockstep.
	retryBaseDelay = 20 * time.Millisecond
	retryMaxDelay  = 1 * time.Second

	// defaultRecoverLimit caps consecutive no-progress recovery rounds
	// (redials, session resumes, shed-retry sweeps) before the client
	// goes sticky.
	defaultRecoverLimit = 8
)

// BufferOption configures a BufferedClient.
type BufferOption func(*BufferedClient)

// WithBatchSize sets how many reports accumulate before Add ships them as
// one BATCH frame (default 256, capped at the wire limit of 65536).
func WithBatchSize(n int) BufferOption {
	return func(b *BufferedClient) {
		if n > 0 {
			b.size = min(n, maxBatch)
		}
	}
}

// WithFlushInterval sets a deadline on buffered reports: d after the first
// report enters an empty buffer, the buffer flushes even if short (default
// 0: only size and explicit Flush trigger shipping).
func WithFlushInterval(d time.Duration) BufferOption {
	return func(b *BufferedClient) { b.interval = d }
}

// WithQueryName routes every shipped batch to the named query of a
// multi-query collector (each BATCH frame is prefixed with a SELECT route
// header). The default, "", targets the collector's default query.
func WithQueryName(name string) BufferOption {
	return func(b *BufferedClient) { b.query = name }
}

// WithReconnect turns on session-based automatic reconnection: the
// client establishes a replay session (HELLO) before its first batch,
// numbers every batch with a session sequence, and — when the transport
// fails mid-pipeline — redials, resumes the session, and replays exactly
// the batches the collector has not applied. The collector dedupes by
// (session, sequence), so a batch whose ack was lost in the disconnect
// is never double-counted and a batch that never arrived is never lost.
//
// redial returns a fresh Client to the same collector. It may be nil
// when the BufferedClient comes from DialBuffered, which then redials
// the original address; with NewBufferedClient a nil redial makes any
// transport failure sticky, exactly as without this option.
func WithReconnect(redial func() (*Client, error)) BufferOption {
	return func(b *BufferedClient) {
		b.reconnect = true
		b.redial = redial
	}
}

// WithReconnectLimit caps consecutive failed recovery attempts — redials,
// session resumes, shed-retry rounds — before the client gives up and
// goes sticky (default 8). Progress (any batch settled) resets the
// count.
func WithReconnectLimit(n int) BufferOption {
	return func(b *BufferedClient) {
		if n > 0 {
			b.recoverLimit = n
		}
	}
}

// WithClientOptions forwards options to the underlying Client — most
// usefully WithProtocolVersion, to pin the buffered pipeline's wire
// protocol. With DialBuffered the options also apply to every reconnect
// redial.
func WithClientOptions(opts ...ClientOption) BufferOption {
	return func(b *BufferedClient) {
		b.clientOpts = append(b.clientOpts, opts...)
		if b.c != nil {
			for _, o := range opts {
				o(b.c)
			}
		}
	}
}

// pendingBatch is one shipped-but-unsettled batch frame. It keeps the
// frame's exact encoded bytes (pooled) until the collector settles it,
// so a disconnect or a retryable NACK re-ships byte-identical wire data
// under the same session sequence — replay never re-encodes, so it can
// never drift from what was originally acknowledged-or-lost. The bytes
// keep their original protocol version even if a reconnect renegotiates:
// both grammars are always accepted server-side.
type pendingBatch struct {
	seq         uint64  // session sequence; 0 outside reconnect mode
	n           int     // report count, for ack sanity checks
	enc         *[]byte // pooled encoded frame, released on settle
	needsResend bool    // shed (NACKed retryable) or replayed: no ack outstanding
	resolved    bool    // settled this drain pass; compacted out
}

// BufferedClient batches report submission over one Client: Add buffers
// reports and ships a BATCH frame whenever the buffer reaches the batch
// size (or the flush interval elapses), pipelining up to a bounded number
// of un-acked batches before draining their acknowledgements. Flush ships
// and drains everything; Close flushes and closes the connection.
//
// Failure handling: a batch the collector rejects outright (ackErr —
// e.g. an unknown query) is counted in Rejected and does not poison the
// pipeline; a batch the collector sheds under overload is retried with
// jittered backoff; and with WithReconnect a broken connection is
// redialed and every unapplied batch replayed exactly once. Only
// unrecoverable failures are sticky.
//
// The BufferedClient owns the Client's connection while reports or acks
// are outstanding: query methods on the underlying Client (Estimate,
// Counts, ...) may only be interleaved after a successful Flush.
// BufferedClient methods themselves are safe for concurrent use.
type BufferedClient struct {
	c            *Client
	size         int
	interval     time.Duration
	query        string
	reconnect    bool
	redial       func() (*Client, error)
	recoverLimit int
	clientOpts   []ClientOption

	mu sync.Mutex
	// stage holds the reports added since the last ship, copied, so a
	// caller may reuse its slices as soon as Add returns.
	stage      stagedBatch
	pending    []*pendingBatch
	token      uint64
	nextSeq    uint64
	sent       int64
	accepted   int64
	rejected   int64
	reconnects int64
	replayed   int64
	timer      *time.Timer
	err        error // first unrecoverable error, sticky
	closed     bool
}

// NewBufferedClient wraps an established Client in an auto-batching
// submitter.
func NewBufferedClient(c *Client, opts ...BufferOption) *BufferedClient {
	b := &BufferedClient{c: c, size: defaultBatchSize, recoverLimit: defaultRecoverLimit}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// DialBuffered connects to a collector at addr and wraps the connection in
// a BufferedClient. With WithReconnect(nil), recovery redials addr.
// Options from WithClientOptions apply to the dial and to every redial.
func DialBuffered(addr string, opts ...BufferOption) (*BufferedClient, error) {
	b := &BufferedClient{size: defaultBatchSize, recoverLimit: defaultRecoverLimit}
	for _, opt := range opts {
		opt(b)
	}
	c, err := Dial(addr, b.clientOpts...)
	if err != nil {
		return nil, err
	}
	b.c = c
	if b.reconnect && b.redial == nil {
		b.redial = func() (*Client, error) { return Dial(addr, b.clientOpts...) }
	}
	return b, nil
}

// Add buffers one report, shipping a batch frame when the buffer fills.
// Every report's dims and values are copied into the staged batch, so
// the caller may reuse its slices once Add returns. The returned error
// is sticky: once the pipeline fails unrecoverably, every subsequent Add
// reports it.
func (b *BufferedClient) Add(rep est.Report) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("transport: buffered client is closed")
	}
	if b.err != nil {
		return b.err
	}
	b.stage.add(rep)
	if n := len(b.stage.ends); n >= b.size {
		b.shipLocked()
	} else if n == 1 && b.interval > 0 && b.timer == nil {
		b.timer = time.AfterFunc(b.interval, b.timedFlush)
	}
	return b.err
}

// Flush ships any buffered reports and drains every outstanding
// acknowledgement, so the connection is quiescent afterwards.
func (b *BufferedClient) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.shipLocked()
	b.drainLocked()
	return b.err
}

// Close flushes, closes the underlying connection, and marks the client
// unusable. A flush failure is reported but the connection still closes.
func (b *BufferedClient) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.shipLocked()
	b.drainLocked()
	b.closed = true
	b.stopTimerLocked()
	if cerr := b.c.Close(); b.err == nil {
		b.err = cerr
	}
	return b.err
}

// Sent returns how many reports have been shipped in BATCH frames
// (replays of the same batch are not counted again).
func (b *BufferedClient) Sent() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sent
}

// Accepted returns how many shipped reports the collector has
// acknowledged as accepted so far (drained acks only; Flush to settle).
// After a reconnect it reflects the collector's authoritative cumulative
// count for the session, so acknowledgements lost with the old
// connection are not undercounted.
func (b *BufferedClient) Accepted() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.accepted
}

// Rejected returns how many shipped reports were in batches the
// collector rejected outright (e.g. routed to a query it does not
// have). Rejection settles a batch — it is not retried and not sticky.
func (b *BufferedClient) Rejected() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rejected
}

// Reconnects returns how many times the client re-established the
// connection and resumed its replay session.
func (b *BufferedClient) Reconnects() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reconnects
}

// Replayed returns how many pending batches were re-shipped after
// reconnects.
func (b *BufferedClient) Replayed() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.replayed
}

// timedFlush is the flush-interval callback.
func (b *BufferedClient) timedFlush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.timer = nil
	if b.closed {
		return
	}
	b.shipLocked()
	b.drainLocked()
}

// helloLocked settles the connection's protocol state before the first
// batch: in reconnect mode it establishes the replay session (the
// versioned HELLO negotiates the protocol in the same exchange);
// otherwise it negotiates only when the client is pinned to v2 —
// exactly Client.SendBatch's rule, so an un-negotiated sessionless
// pipeline stays on the v1 grammar. Caller holds b.mu.
func (b *BufferedClient) helloLocked() error {
	if !b.reconnect {
		b.c.begin()
		defer b.c.end()
		return b.c.maybeNegotiateLocked()
	}
	if b.token != 0 {
		return nil
	}
	info, err := b.c.Hello(0)
	if err != nil {
		return err
	}
	b.token = info.Token
	b.nextSeq = 1
	return nil
}

// shipLocked encodes the staged reports as one batch frame and writes it
// without waiting for the ack, draining first if the pipeline is at its
// depth bound. Caller holds b.mu.
func (b *BufferedClient) shipLocked() {
	if b.err != nil || len(b.stage.ends) == 0 {
		return
	}
	b.stopTimerLocked()
	if len(b.pending) >= defaultMaxPending {
		b.drainLocked()
		if b.err != nil {
			return
		}
	}
	if err := b.helloLocked(); err != nil {
		b.recoverLocked(err)
		if b.err != nil {
			return
		}
	}
	pb := &pendingBatch{n: len(b.stage.ends)}
	if b.reconnect {
		pb.seq = b.nextSeq
		b.nextSeq++
	}
	if err := b.encodePendingLocked(pb); err != nil {
		// Encode failures are configuration errors (oversize batch, bad
		// query name), not transport faults: sticky, nothing on the wire.
		b.err = err
		return
	}
	b.stage.reset()
	b.pending = append(b.pending, pb)
	b.sent += int64(pb.n)
	if err := b.shipOneLocked(pb); err != nil {
		pb.needsResend = true
		b.recoverLocked(err)
		if b.err == nil {
			// Recovery re-shipped under new sequencing state; settle the
			// pipeline before accepting more pipelined ships, so batches
			// stay in order on the wire.
			b.drainLocked()
		}
	}
}

// encodePendingLocked encodes the staged batch into pb.enc for the
// connection's negotiated protocol: a CBATCH when the connection speaks
// v2 and the batch is rectangular, a 0x06 BATCH otherwise. Caller holds
// b.mu.
func (b *BufferedClient) encodePendingLocked(pb *pendingBatch) error {
	bp := encPool.Get().(*[]byte)
	buf, err := b.stage.appendFrame((*bp)[:0], b.query, pb.seq, b.c.ProtocolVersion() >= ProtocolV2)
	if err != nil {
		putEncBuf(bp)
		return err
	}
	*bp = buf
	pb.enc = bp
	return nil
}

// shipOneLocked writes one pending batch's pre-encoded frame. Caller
// holds b.mu.
func (b *BufferedClient) shipOneLocked(pb *pendingBatch) error {
	b.c.mu.Lock()
	defer b.c.mu.Unlock()
	return b.c.writeEncodedLocked(*pb.enc)
}

// drainLocked settles every outstanding batch: it reads
// acknowledgements, counts accepted and rejected reports, re-ships shed
// batches after a jittered backoff, and — in reconnect mode — recovers
// from transport failures by redialing and replaying. It returns with
// either every batch settled or b.err sticky. Caller holds b.mu.
func (b *BufferedClient) drainLocked() {
	for round := 0; b.err == nil && len(b.pending) > 0; round++ {
		if b.hasResendLocked() {
			if err := b.reshipLocked(); err != nil {
				b.recoverLocked(err)
				continue
			}
		}
		progress, ioErr := b.readAcksLocked()
		if progress {
			round = 0
		}
		if ioErr != nil {
			b.recoverLocked(ioErr)
			continue
		}
		if !b.hasResendLocked() {
			return
		}
		if round >= b.recoverLimit {
			b.err = fmt.Errorf("transport: batches still shed after %d retries: %w", round, ErrOverloaded)
			return
		}
		sleepBackoff(round)
	}
}

// hasResendLocked reports whether any pending batch awaits re-shipping.
// Caller holds b.mu.
func (b *BufferedClient) hasResendLocked() bool {
	for _, pb := range b.pending {
		if pb.needsResend {
			return true
		}
	}
	return false
}

// reshipLocked re-ships every batch marked for resend, in ship order,
// over the current connection — the exact bytes shipped the first time,
// so a replay can never diverge from the original frame. Caller holds
// b.mu.
func (b *BufferedClient) reshipLocked() error {
	b.c.mu.Lock()
	defer b.c.mu.Unlock()
	for _, pb := range b.pending {
		if !pb.needsResend {
			continue
		}
		if err := b.c.writeEncodedLocked(*pb.enc); err != nil {
			return err
		}
		pb.needsResend = false
	}
	return nil
}

// readAcksLocked reads the acknowledgement of every in-flight batch (in
// ship order — the order acks arrive), settling accepted and rejected
// ones and marking shed ones for resend. It returns whether any batch
// settled, plus the transport error that interrupted the pass, if any;
// batches whose acks were not yet read stay pending for recovery.
// Caller holds b.mu.
func (b *BufferedClient) readAcksLocked() (progress bool, ioErr error) {
	b.c.mu.Lock()
	if b.c.timeout > 0 {
		b.c.conn.SetDeadline(time.Now().Add(b.c.timeout))
		defer b.c.conn.SetDeadline(time.Time{})
	}
	for _, pb := range b.pending {
		if pb.needsResend {
			continue
		}
		status, acc, err := b.c.readBatchStatusLocked(pb.n)
		if err != nil {
			ioErr = err
			break
		}
		switch status {
		case ackOK:
			b.accepted += int64(acc)
			pb.resolved = true
			progress = true
		case ackRetry:
			pb.needsResend = true
		default:
			b.rejected += int64(pb.n)
			pb.resolved = true
			progress = true
		}
	}
	b.c.mu.Unlock()
	b.compactPendingLocked()
	return progress, ioErr
}

// compactPendingLocked drops settled batches from the pending list and
// returns their encoded frames to the pool. Caller holds b.mu.
func (b *BufferedClient) compactPendingLocked() {
	keep := b.pending[:0]
	for _, pb := range b.pending {
		if !pb.resolved {
			keep = append(keep, pb)
			continue
		}
		if pb.enc != nil {
			putEncBuf(pb.enc)
			pb.enc = nil
		}
	}
	for i := len(keep); i < len(b.pending); i++ {
		b.pending[i] = nil
	}
	b.pending = keep
}

// recoverLocked re-establishes the pipeline after a transport failure:
// redial, resume the replay session, drop the pending batches the
// collector already applied, reconcile accounting with its authoritative
// accepted count, and mark the rest for replay (the drain loop re-ships
// them in order). Without reconnect mode — or when the collector no
// longer knows the session — the failure is sticky and the un-acked
// pipeline is abandoned: Sent minus Accepted minus Rejected is then the
// number of reports with unknown fate. Caller holds b.mu.
func (b *BufferedClient) recoverLocked(cause error) {
	if !b.reconnect || b.redial == nil {
		b.err = cause
		b.abandonPendingLocked()
		return
	}
	lastErr := cause
	for attempt := 0; attempt < b.recoverLimit; attempt++ {
		sleepBackoff(attempt)
		nc, err := b.redial()
		if err != nil {
			lastErr = err
			continue
		}
		info, herr := nc.Hello(b.token)
		if herr != nil {
			nc.Close()
			if errors.Is(herr, ErrSessionRejected) {
				b.err = herr
				b.abandonPendingLocked()
				return
			}
			lastErr = herr
			continue
		}
		b.c.Close()
		b.c = nc
		b.reconnects++
		b.token = info.Token
		if b.nextSeq == 0 {
			b.nextSeq = 1
		}
		// Drop what the collector proves it applied; its cumulative count
		// also covers acks the dead connection swallowed.
		for _, pb := range b.pending {
			if pb.seq != 0 && pb.seq <= info.LastSeq {
				pb.resolved = true
			} else {
				pb.needsResend = true
				b.replayed++
			}
		}
		b.compactPendingLocked()
		if b.token != 0 {
			b.accepted = int64(info.Accepted)
		}
		return
	}
	b.err = fmt.Errorf("transport: reconnect failed after %d attempts: %w", b.recoverLimit, lastErr)
	b.abandonPendingLocked()
}

// abandonPendingLocked discards the un-settled pipeline on an
// unrecoverable failure; the batches' fate is unknown and the accounting
// deliberately leaves them outside Accepted and Rejected. Caller holds
// b.mu.
func (b *BufferedClient) abandonPendingLocked() {
	for i, pb := range b.pending {
		if pb.enc != nil {
			putEncBuf(pb.enc)
			pb.enc = nil
		}
		b.pending[i] = nil
	}
	b.pending = b.pending[:0]
}

// sleepBackoff pauses before retry attempt (0-based): exponential from
// retryBaseDelay to retryMaxDelay, jittered to ±50% so a fleet of
// recovering clients does not stampede the collector in lockstep.
func sleepBackoff(attempt int) {
	d := retryBaseDelay << min(attempt, 8)
	if d > retryMaxDelay {
		d = retryMaxDelay
	}
	time.Sleep(d/2 + rand.N(d))
}

// stopTimerLocked cancels a pending interval flush. Caller holds b.mu.
func (b *BufferedClient) stopTimerLocked() {
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
}
