package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/hdr4me/hdr4me/internal/est"
)

// ErrOverloaded reports a retryable NACK: the collector shed the
// exchange (connection admission or batch admission) without failing it,
// and the caller may retry the identical exchange after backing off.
// Test with errors.Is.
var ErrOverloaded = errors.New("transport: collector overloaded; retry later")

// ErrSessionRejected reports a HELLO the collector refused outright —
// an unknown or expired session token. Unlike ErrOverloaded it is not
// retryable: the replay state is gone and the client must open a fresh
// session (accepting that unacked batches are lost). Test with
// errors.Is.
var ErrSessionRejected = errors.New("transport: session rejected")

// Client is the user-side network client: it connects to a collector and
// submits reports — singly or in batches — queries the running estimates,
// and ships or fetches whole snapshots for shard composition.
//
// A Client is safe for concurrent use: each request/response exchange is
// serialized under an internal mutex, so goroutines sharing one Client
// never interleave frames or desync the ack stream. Calls block while
// another exchange is in flight; open one Client per goroutine when that
// contention matters.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	timeout time.Duration
	// armed is the deadline begin set for the current exchange from
	// timeout; zero when no timeout is set.
	armed time.Time

	// protoWant is the version the caller pinned through
	// WithProtocolVersion: 0 (auto — negotiate up to ProtocolMax), 1
	// (never negotiate) or 2 (require the columnar frame).
	protoWant int
	// proto is the negotiated protocol version; 0 until a versioned
	// HELLO completes. Un-negotiated connections encode as v1.
	proto int
}

// ClientOption configures a Client at construction.
type ClientOption func(*Client)

// WithProtocolVersion pins the client's wire protocol version: 1 forces
// the legacy frame grammar (no negotiation is ever attempted), 2
// requires the columnar batch frame (Hello and SendBatch fail when the
// collector cannot negotiate it). Without this option the client
// negotiates automatically — it asks for ProtocolMax on its first HELLO
// exchange and encodes batches for whatever the collector granted, so
// it interoperates with collectors of any age. A client that never
// performs a HELLO (and is not pinned to 2) stays on v1.
func WithProtocolVersion(v int) ClientOption {
	return func(c *Client) { c.protoWant = v }
}

// Dial connects to a collector at addr.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, opts...), nil
}

// NewClient wraps an established connection (e.g. a pipe in tests) in a
// Client. The Client takes ownership of conn.
func NewClient(conn net.Conn, opts ...ClientOption) *Client {
	c := &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// SetTimeout bounds every subsequent exchange on this client: the
// connection deadline is armed when an exchange begins and cleared when
// it completes, so a dead or wedged collector surfaces as a timeout
// error within d instead of hanging the caller forever. Zero (the
// default) disables the bound. The *Context exchange variants compose
// with it — whichever deadline is tighter wins.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// begin serializes one exchange and arms the per-exchange deadline; end
// disarms it and releases the exchange lock. Every caller defers end
// right after begin (a returned release func would cost an allocation
// per exchange).
func (c *Client) begin() {
	c.mu.Lock()
	if c.timeout > 0 {
		c.armed = time.Now().Add(c.timeout)
		c.conn.SetDeadline(c.armed)
	}
	//hdrvet:ignore lockorder -- begin hands c.mu to its caller as a guard; every caller defers end
}

// end closes the exchange begin opened.
func (c *Client) end() {
	if !c.armed.IsZero() {
		c.armed = time.Time{}
		c.conn.SetDeadline(time.Time{})
	}
	c.mu.Unlock()
}

// writeReport picks the compact 0x01 frame for pair-shaped reports (the
// mean family) and the 0x05 frame for reports whose lists differ in length
// (whole-tuple and frequency families).
func (c *Client) writeReport(rep est.Report) error {
	if len(rep.Dims) == len(rep.Values) {
		return WriteReport(c.bw, rep)
	}
	return WriteVecReport(c.bw, rep)
}

// errRejected is readAck's error for a NACK, which the caller replaces
// with its own message through rejected.
var errRejected = errors.New("transport: exchange rejected")

// readAck reads a single status byte: nil on ackOK, ErrOverloaded on a
// retryable NACK and errRejected on any other. Callers pass a non-nil
// result through rejected, so an accepted exchange formats nothing.
func (c *Client) readAck() error {
	ack, err := c.br.ReadByte()
	if err != nil {
		return err
	}
	switch ack {
	case ackOK:
		return nil
	case ackRetry:
		return ErrOverloaded
	default:
		return errRejected
	}
}

// rejected returns readAck's error err, with errRejected replaced by
// the exchange's own rejection message.
func rejected(err error, format string, args ...any) error {
	if err == errRejected {
		return fmt.Errorf(format, args...)
	}
	return err
}

// readReasonedAck reads the status byte of an exchange whose rejection
// carries a reason string (OPENQUERY, CHECKPOINT, HELLO): nil on ackOK,
// ErrOverloaded on a retryable NACK, and reject wrapping the
// collector's reason otherwise. Caller holds c.mu.
func (c *Client) readReasonedAck(reject error) error {
	ack, err := c.br.ReadByte()
	if err != nil {
		return err
	}
	if ack == ackOK {
		return nil
	}
	if ack == ackRetry {
		return ErrOverloaded
	}
	msg, err := readString(c.br, maxErrLen)
	if err != nil {
		return err
	}
	return fmt.Errorf("%w: %s", reject, msg)
}

// Send submits one report and waits for the acknowledgement.
func (c *Client) Send(rep est.Report) error {
	return c.SendContext(context.Background(), rep)
}

// SendContext is Send bound to a context: cancellation or expiry aborts
// the exchange instead of hanging on an unresponsive collector.
func (c *Client) SendContext(ctx context.Context, rep est.Report) error {
	c.begin()
	defer c.end()
	defer c.guard(ctx)()
	if err := c.writeReport(rep); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if err := c.readAck(); err != nil {
		return rejected(err, "transport: collector rejected report")
	}
	return nil
}

// SendBatch submits reps as one BATCH frame — one syscall and one ack
// round-trip for the whole slice — and returns how many the collector
// accepted. Rejected reports are skipped server-side, so accepted <
// len(reps) with a nil error means some reports were malformed for the
// serving estimator. Batches longer than 65536 reports must be split.
func (c *Client) SendBatch(reps []est.Report) (accepted int, err error) {
	return c.SendBatchContext(context.Background(), reps)
}

// SendBatchContext is SendBatch bound to a context; a v2 pin's lazy
// negotiation runs inside the same bound exchange.
func (c *Client) SendBatchContext(ctx context.Context, reps []est.Report) (accepted int, err error) {
	c.begin()
	defer c.end()
	defer c.guard(ctx)()
	n, err := c.writeBatchLocked("", 0, reps, true)
	if err != nil {
		return 0, err
	}
	return c.readBatchAckLocked(n)
}

// maybeNegotiateLocked runs the lazy negotiation a version-2 pin
// implies: a client constructed with WithProtocolVersion(2) that has not
// yet negotiated must do so before its first batch, or it would
// silently ship v1 frames. Auto-mode clients skip this — they negotiate
// on Hello (or an explicit Negotiate call) and stay v1 otherwise.
// Caller holds c.mu.
func (c *Client) maybeNegotiateLocked() error {
	if c.protoWant != ProtocolV2 {
		return nil
	}
	_, err := c.negotiateLocked()
	return err
}

// writeEncodedLocked writes one pre-marshaled frame and flushes; the
// caller holds c.mu.
func (c *Client) writeEncodedLocked(frame []byte) error {
	if _, err := c.bw.Write(frame); err != nil {
		return err
	}
	return c.bw.Flush()
}

// writeBatchLocked marshals reps as one batch frame into a pooled
// buffer and writes it with a single flush, without reading the ack;
// SendBatch, Query.SendBatch and SendBatchEpoch all write through it.
// seq is carried when non-zero (valid only after a successful HELLO). A
// route travels in-frame on a CBATCH and as a SELECT prefix on a 0x06
// BATCH. With columnar set — negotiating first under a v2 pin — the
// batch goes through CodecV2, so a rectangular one ships as a CBATCH
// once the connection speaks v2; callers that write their own route or
// EPOCH header pass columnar false and an empty query, since CBATCH
// composes with neither. It returns len(reps) for ack bookkeeping.
// Caller holds c.mu.
func (c *Client) writeBatchLocked(query string, seq uint64, reps []est.Report, columnar bool) (int, error) {
	if columnar {
		if err := c.maybeNegotiateLocked(); err != nil {
			return 0, err
		}
		columnar = c.proto >= ProtocolV2
	}
	var codec FrameCodec = CodecV1{}
	if columnar {
		codec = CodecV2{}
	}
	bp := encPool.Get().(*[]byte)
	buf, err := codec.AppendBatch((*bp)[:0], query, seq, reps)
	if err == nil {
		*bp = buf
		err = c.writeEncodedLocked(buf)
	} else {
		// A refused batch (too many reports) must not leave the route or
		// epoch header a pinned handle buffered ahead of it to prefix the
		// next exchange: drop everything this exchange buffered.
		c.bw.Reset(c.conn)
	}
	putEncBuf(bp)
	if err != nil {
		return 0, err
	}
	return len(reps), nil
}

// readBatchStatusLocked reads one BATCH reply: a retryable NACK is a
// single status byte, every other status is followed by the uint32
// accepted count. The returned error is non-nil only for transport-level
// failures — a rejected (ackErr) or shed (ackRetry) batch leaves the
// connection in sync and the ack fully consumed, so the caller decides
// whether that outcome is fatal. Caller holds c.mu.
func (c *Client) readBatchStatusLocked(sent int) (status byte, accepted int, err error) {
	var sb [1]byte
	if _, err := io.ReadFull(c.br, sb[:]); err != nil {
		return 0, 0, err
	}
	if sb[0] == ackRetry {
		return ackRetry, 0, nil
	}
	var cb [4]byte
	if _, err := io.ReadFull(c.br, cb[:]); err != nil {
		return 0, 0, err
	}
	accepted = int(binary.BigEndian.Uint32(cb[:]))
	if accepted > sent {
		return 0, 0, fmt.Errorf("transport: collector acknowledged %d of %d reports", accepted, sent)
	}
	return sb[0], accepted, nil
}

// readBatchAckLocked adapts readBatchStatusLocked for callers without a
// retry path: a rejected batch and a shed batch are both errors (the
// latter ErrOverloaded, so it can be told apart and retried). Caller
// holds c.mu.
func (c *Client) readBatchAckLocked(sent int) (int, error) {
	status, accepted, err := c.readBatchStatusLocked(sent)
	if err != nil {
		return 0, err
	}
	switch status {
	case ackOK:
		return accepted, nil
	case ackRetry:
		return 0, ErrOverloaded
	default:
		return 0, fmt.Errorf("transport: collector rejected batch")
	}
}

// SessionInfo describes the replay session a HELLO exchange established:
// the token to resume it with after a disconnect, the last batch
// sequence number the collector applied, and the cumulative reports it
// accepted for the session. LastSeq tells a reconnecting client which
// pending batches are already applied; Accepted reconciles accounting
// for acknowledgements the previous connection lost.
type SessionInfo struct {
	Token    uint64
	LastSeq  uint64
	Accepted uint64
	// Proto is the wire protocol version the HELLO exchange negotiated
	// (ProtocolV1 when the client is pinned to v1 and negotiation was
	// skipped).
	Proto int
}

// Hello opens (token 0) or resumes a replay session on the collector
// (the HELLO frame). After a successful Hello, every batch this client
// ships carries a session sequence number and the collector applies each
// at most once — the exactly-once contract BufferedClient's reconnect
// logic is built on. Unless the client is pinned to protocol v1, the
// exchange also negotiates the wire protocol version (the client asks
// for its pin, or ProtocolMax in auto mode) and the connection's batch
// encoding follows the collector's answer from then on. An overloaded
// collector sheds the exchange with ErrOverloaded; an unknown or
// expired token comes back wrapped in ErrSessionRejected.
func (c *Client) Hello(token uint64) (SessionInfo, error) {
	c.begin()
	defer c.end()
	ask := c.helloVersion()
	err := writeHello(c.bw, token, ask, false)
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		return SessionInfo{}, err
	}
	h, ver, err := c.readHelloReplyLocked(ask, ErrSessionRejected)
	if err != nil {
		return SessionInfo{}, err
	}
	c.proto = ver
	return SessionInfo{Token: h.Token, LastSeq: h.LastSeq, Accepted: h.Accepted, Proto: ver}, nil
}

// Negotiate pins the connection's wire protocol version without
// touching session state: a versioned HELLO with the no-session flag,
// asking for the client's pinned version (or ProtocolMax in auto mode).
// The result is cached — negotiating twice, or after a Hello already
// negotiated, is free. A client pinned to v1 never negotiates and
// reports ProtocolV1.
func (c *Client) Negotiate() (int, error) {
	c.begin()
	defer c.end()
	return c.negotiateLocked()
}

// errNegotiationRejected prefixes the collector's reason for refusing a
// negotiation-only HELLO.
var errNegotiationRejected = errors.New("transport: negotiation rejected")

// negotiateLocked is Negotiate's exchange; the caller holds c.mu.
func (c *Client) negotiateLocked() (int, error) {
	if c.proto != 0 {
		return c.proto, nil
	}
	if c.protoWant == ProtocolV1 {
		c.proto = ProtocolV1
		return c.proto, nil
	}
	ask := c.helloVersion()
	if err := writeHello(c.bw, 0, ask, true); err != nil {
		return 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	_, ver, err := c.readHelloReplyLocked(ask, errNegotiationRejected)
	if err != nil {
		return 0, err
	}
	c.proto = ver
	return ver, nil
}

// helloVersion is the version field of this client's HELLO request:
// 0 (the legacy request, which negotiates nothing) when pinned to v1,
// otherwise the client's pin, or ProtocolMax in auto mode.
func (c *Client) helloVersion() int {
	switch c.protoWant {
	case ProtocolV1:
		return 0
	case 0:
		return ProtocolMax
	}
	return c.protoWant
}

// readHelloReplyLocked reads the reply to the HELLO of version ask just
// sent — Hello's and Negotiate's shared reader. A shed surfaces as
// ErrOverloaded and a rejection as reject wrapping the collector's
// reason. A legacy reply (ask 0) leaves the connection on v1; an
// accepted versioned reply must name a version this client speaks and,
// under a v2 pin, at least v2. Caller holds c.mu.
func (c *Client) readHelloReplyLocked(ask int, reject error) (helloReply, int, error) {
	if err := c.readReasonedAck(reject); err != nil {
		return helloReply{}, 0, err
	}
	h, ver, err := readHelloReply(c.br, ask)
	switch {
	case err != nil:
		return helloReply{}, 0, err
	case ask == 0:
		return h, ProtocolV1, nil
	case ver < ProtocolV1 || ver > ProtocolMax:
		return helloReply{}, 0, fmt.Errorf("transport: collector negotiated unsupported protocol version %d", ver)
	case c.protoWant == ProtocolV2 && ver < ProtocolV2:
		return helloReply{}, 0, fmt.Errorf("transport: collector does not speak protocol v2")
	}
	return h, ver, nil
}

// ProtocolVersion reports the wire protocol version this client encodes
// batches in right now: the negotiated version, or ProtocolV1 while no
// negotiation has happened.
func (c *Client) ProtocolVersion() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.proto == 0 {
		return ProtocolV1
	}
	return c.proto
}

// Estimate asks the collector for its current naive aggregation.
func (c *Client) Estimate() ([]float64, error) {
	return c.EstimateContext(context.Background())
}

// EstimateContext is Estimate bound to a context.
func (c *Client) EstimateContext(ctx context.Context) ([]float64, error) {
	c.begin()
	defer c.end()
	defer c.guard(ctx)()
	if err := c.writeRequestLocked(frameEstimate); err != nil {
		return nil, err
	}
	return readFloats(c.br)
}

// Enhanced asks the collector for its HDR4ME re-calibrated estimate. The
// collector replies with an error status when its estimator does not
// support enhancement.
func (c *Client) Enhanced() ([]float64, error) {
	return c.EnhancedContext(context.Background())
}

// EnhancedContext is Enhanced bound to a context.
func (c *Client) EnhancedContext(ctx context.Context) ([]float64, error) {
	c.begin()
	defer c.end()
	defer c.guard(ctx)()
	if err := c.writeRequestLocked(frameEnhanced); err != nil {
		return nil, err
	}
	if err := c.readAck(); err != nil {
		return nil, rejected(err, "transport: collector cannot serve an enhanced estimate")
	}
	return readFloats(c.br)
}

// Counts asks the collector for the per-dimension report counts.
func (c *Client) Counts() ([]int64, error) {
	return c.CountsContext(context.Background())
}

// CountsContext is Counts bound to a context.
func (c *Client) CountsContext(ctx context.Context) ([]int64, error) {
	c.begin()
	defer c.end()
	defer c.guard(ctx)()
	if err := c.writeRequestLocked(frameCounts); err != nil {
		return nil, err
	}
	return readInts(c.br)
}

// PullSnapshot fetches the collector's current estimator snapshot (the
// SNAPSHOT frame) — the state a parent collector Merges to fold this
// shard in.
func (c *Client) PullSnapshot() (est.Snapshot, error) {
	return c.PullSnapshotContext(context.Background())
}

// PullSnapshotContext is PullSnapshot bound to a context: the exchange
// aborts when ctx expires or is cancelled, so an unresponsive collector
// cannot hang the caller forever.
func (c *Client) PullSnapshotContext(ctx context.Context) (est.Snapshot, error) {
	c.begin()
	defer c.end()
	defer c.guard(ctx)()
	if err := c.writeRequestLocked(frameSnapshot); err != nil {
		return est.Snapshot{}, err
	}
	if err := c.readAck(); err != nil {
		return est.Snapshot{}, rejected(err, "transport: collector cannot serve a snapshot")
	}
	return DecodeSnapshot(c.br)
}

// PushSnapshot ships a snapshot to the collector (the MERGE frame), which
// folds it into its estimator. The collector NACKs snapshots whose family
// or shape does not match its estimator.
func (c *Client) PushSnapshot(s est.Snapshot) error {
	return c.PushSnapshotContext(context.Background(), s)
}

// PushSnapshotContext is PushSnapshot bound to a context, exactly as
// PullSnapshotContext.
func (c *Client) PushSnapshotContext(ctx context.Context, s est.Snapshot) error {
	c.begin()
	defer c.end()
	defer c.guard(ctx)()
	if err := WriteMerge(c.bw, s); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if err := c.readAck(); err != nil {
		return rejected(err, "transport: collector rejected snapshot merge")
	}
	return nil
}

// Checkpoint asks the collector to persist its full state to disk now
// (the CHECKPOINT frame). The collector replies only after its
// checkpoint hook returns, so a nil error means the state — every query
// this client has had acknowledged, across all connections — is durably
// on disk. Collectors without a checkpoint sink, and failed writes, come
// back as an error carrying the collector's reason.
func (c *Client) Checkpoint() error {
	return c.CheckpointContext(context.Background())
}

// errCheckpointRejected prefixes the collector's reason for refusing a
// CHECKPOINT.
var errCheckpointRejected = errors.New("transport: collector rejected checkpoint")

// CheckpointContext is Checkpoint bound to a context. Note that a
// context abort only stops the wait: the collector may still complete
// the checkpoint after the client has given up on the reply.
func (c *Client) CheckpointContext(ctx context.Context) error {
	c.begin()
	defer c.end()
	defer c.guard(ctx)()
	if err := c.writeRequestLocked(frameCheckpoint); err != nil {
		return err
	}
	return c.readReasonedAck(errCheckpointRejected)
}

// writeRequestLocked writes a payload-free request frame and flushes; the
// caller holds c.mu.
func (c *Client) writeRequestLocked(frame byte) error {
	if err := c.bw.WriteByte(frame); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
