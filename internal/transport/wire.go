// Package transport moves LDP reports across a real network boundary: a
// compact length-prefixed binary wire format (encoding/binary) and a TCP
// collector server with a matching client. It exists so the protocol is
// exercised end to end — user-side perturbation, serialization, a socket,
// and collector-side aggregation — not just in-process.
//
// Wire format (big endian). Every frame starts with a one-byte type:
//
//	0x01 REPORT    uint32 count, then count × (uint32 dim, float64 value)
//	0x02 ESTIMATE  (no payload) — server replies uint32 d, then d × float64
//	0x03 COUNTS    (no payload) — server replies uint32 d, then d × int64
//	0x04 ENHANCED  (no payload) — server replies a status byte; on 0x00 it
//	     follows with uint32 d, then d × float64 (the HDR4ME-re-calibrated
//	     estimate), on 0xFF the estimator does not support enhancement
//	0x05 VECREPORT uint32 ndims, ndims × uint32 dim, uint32 nvals,
//	     nvals × float64 — a report whose dim and value lists have
//	     independent lengths (whole-tuple and frequency families)
//	0x06 BATCH     uint32 count, then count × one embedded report frame
//	     (each a full 0x01 or 0x05 frame, type byte included) — server
//	     replies a status byte then uint32 accepted-count; reports the
//	     estimator rejects are skipped, not fatal
//	0x07 SNAPSHOT  (no payload) — server replies a status byte; on 0x00 it
//	     follows with the serialized est.Snapshot of its estimator
//	0x08 MERGE     a serialized est.Snapshot — the server folds it into
//	     its estimator and replies a single status byte
//	0x09 OPENQUERY a serialized est.QuerySpec — the server registers a new
//	     named query (admission-checked against the privacy budget) and
//	     replies a status byte; on 0xFF a length-prefixed error string
//	     follows
//	0x0A SELECT    uint32 name length + name bytes — a route header, not a
//	     standalone exchange: it prefixes exactly one frame of types
//	     0x01–0x08, and that frame's exchange executes against the named
//	     query instead of the default one
//	0x0B CHECKPOINT (no payload) — the server invokes its checkpoint hook
//	     (durably persisting the full collector state, see internal/persist)
//	     and replies a status byte; on 0xFF a length-prefixed error string
//	     follows. Not routable: a checkpoint spans every query.
//	0x0C EPOCH     uint64 epoch id, then one embedded ingest frame (0x01,
//	     0x05 or 0x06, type byte included) — the embedded reports are
//	     accumulated into the named epoch instead of the live one, subject
//	     to the serving ring's lateness policy. Composes after SELECT /
//	     SELECTGEN; the reply mirrors the wrapped frame's (ack byte for a
//	     report, status + uint32 accepted for a batch). Requires an
//	     epoch-enabled (continual) query.
//	0x0D WINDOW    uint32 w — server replies a status byte; on 0x00 it
//	     follows with uint32 d, then d × float64: the estimate over the
//	     last w epochs (live epoch included)
//	0x0E DECAY     float64 gamma — server replies a status byte; on 0x00
//	     it follows with uint32 d, then d × float64: the exponentially
//	     decayed estimate (epoch k back weighted gamma^k)
//	0x0F ROTATE    (no payload) — the server rotates the serving ring
//	     (freezing the live epoch) and replies a status byte; on 0x00 a
//	     uint64 follows: the id of the new live epoch
//	0x10 SELECTGEN uint32 name length + name bytes + uint64 generation — a
//	     route header like SELECT, but pinned to one registration
//	     generation: if the named query has since been deleted and
//	     reopened (a different generation), the route resolves to no query
//	     and the inner frame is rejected instead of silently landing in
//	     the successor's estimator
//	0x11 QUERYINFO uint32 name length + name bytes — the server replies a
//	     status byte; on 0x00 it follows with uint64 generation, one byte
//	     lifecycle state, one byte epoch-mode flag, and uint64 live epoch
//	     id (zero when epoch mode is off). Not routable.
//	0x12 HELLO     uint64 session token (0 opens a new session) — the
//	     server replies a status byte; on 0x00 it follows with uint64
//	     token, uint64 last applied batch sequence number, and uint64
//	     total reports accepted for the session; on 0xFE the collector is
//	     shedding load (back off and retry); on 0xFF a length-prefixed
//	     error string follows (unknown or expired token). After a
//	     successful HELLO, every top-level BATCH frame on the connection
//	     carries a uint64 sequence number between the type byte and the
//	     report count, and the server applies each (token, seq) at most
//	     once — the exactly-once replay contract reconnecting clients
//	     rely on. Not routable. A client may also set flag bits in the
//	     token field to negotiate a protocol version (see cbatch.go);
//	     the acknowledged reply then grows a trailing version byte.
//	0x13 CBATCH    the protocol-v2 columnar batch frame: in-frame route,
//	     uint64 sequence number, a rectangular (n × ndims × nvals)
//	     shape, delta-varint RLE dimension columns and one contiguous
//	     little-endian float64 value run. Full grammar in cbatch.go.
//	     Replied to exactly like BATCH. Not routable by SELECT (the
//	     route is in-frame) and not embeddable in EPOCH.
//
// A report frame (0x01 or 0x05) is acknowledged with a single 0x00 byte
// (ok) or 0xFF (rejected). Frames are small, so no additional length prefix
// is needed beyond the counts. How a report's dims/values are interpreted
// is up to the serving estimator family (see est.Report); the classic pair
// frame 0x01 remains the compact encoding for the mean family where the
// two lists pair up.
//
// Overload shedding. A third status byte, 0xFE (retryable NACK), means
// the collector refused the exchange for capacity — admission gates on
// connection count and in-flight batch reports — without failing it: the
// frame body was consumed, the connection (when one was granted) stays in
// sync, and the client may retry the identical exchange after backing
// off. 0xFE replaces the whole 5-byte batch reply (no accepted count
// follows), and an over-limit accept is answered with a single 0xFE byte
// before the connection closes. Sequence numbers make the retry safe:
// a shed sequenced batch never advances the session's applied sequence,
// so replaying it cannot double-count.
//
// Routing (the multi-query service). A collector hosts an est.Registry of
// named queries; un-routed frames resolve to the query named
// est.DefaultName, so legacy single-tenant clients keep working
// unchanged. A SELECT-prefixed ESTIMATE or COUNTS exchange gains a
// leading status byte before its vector reply (the un-routed forms have
// nowhere to report an unknown query name; the routed forms do). All
// other routed exchanges keep their legacy reply shapes — a routing
// failure surfaces as the frame's ordinary rejection status, after the
// server has consumed the frame body, so the connection stays usable.
//
// A serialized est.Snapshot is: uint32 kind length, kind bytes, uint32
// dims, then the Cards, Sums and Counts vectors each as uint32 length +
// elements (uint32 cards, float64 sums, int64 counts). SNAPSHOT and MERGE
// make shard collectors composable over the wire: a leaf collector
// aggregates its region's reports, ships one snapshot upstream, and the
// parent folds it in associatively — no report replay, no raw data.
//
// Both sides of a connection are buffered (bufio); the server flushes
// after every reply, clients flush before every read of a reply. BATCH
// amortizes the per-report syscall and ack round-trip that bound
// per-report Send throughput.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"github.com/hdr4me/hdr4me/internal/est"
)

// Frame type bytes.
const (
	frameReport     = 0x01
	frameEstimate   = 0x02
	frameCounts     = 0x03
	frameEnhanced   = 0x04
	frameVecReport  = 0x05
	frameBatch      = 0x06
	frameSnapshot   = 0x07
	frameMerge      = 0x08
	frameOpenQuery  = 0x09
	frameSelect     = 0x0A
	frameCheckpoint = 0x0B
	frameEpoch      = 0x0C
	frameWindow     = 0x0D
	frameDecay      = 0x0E
	frameRotate     = 0x0F
	frameSelectGen  = 0x10
	frameQueryInfo  = 0x11
	frameHello      = 0x12
	frameCBatch     = 0x13

	ackOK = 0x00
	// ackRetry is the retryable NACK: the collector shed the exchange for
	// capacity (admission gate, batch ordering gap) and the client may
	// repeat it verbatim after backing off. It deliberately sits far from
	// the frame-type range so a desynced stream cannot alias it.
	ackRetry = 0xFE
	ackErr   = 0xFF
)

// maxNameLen caps query names and other short strings on the wire.
const maxNameLen = 128

// maxErrLen caps the error string an OPENQUERY rejection carries.
const maxErrLen = 1 << 10

// maxPairs caps a report frame to guard the server against hostile or
// corrupt length fields.
const maxPairs = 1 << 20

// maxBatch caps the report count of one BATCH frame; larger batches gain
// nothing (the syscall is already amortized) and a hostile count must not
// pin a connection goroutine for unbounded work.
const maxBatch = 1 << 16

// maxKindLen caps the estimator-kind string of a serialized snapshot.
const maxKindLen = 64

// encPool recycles marshal buffers across WriteReport/WriteVecReport
// calls and client batch frames, so the steady-state encode path
// allocates nothing.
var encPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// maxEncRetain caps the capacity of a buffer returned to the pool: a
// one-off giant batch must not pin its marshal buffer forever.
const maxEncRetain = 1 << 20

func putEncBuf(bp *[]byte) {
	if cap(*bp) > maxEncRetain {
		return
	}
	*bp = (*bp)[:0]
	encPool.Put(bp)
}

// appendReport marshals one pair-shaped report frame (0x01) onto buf:
// dims[i] paired with vals[i]. It takes the two lists rather than an
// est.Report so that, inlined into the batch writer's loop, it works on
// slices held in registers.
func appendReport(buf []byte, dims []uint32, vals []float64) []byte {
	buf = append(buf, frameReport)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(dims)))
	for i, d := range dims {
		buf = binary.BigEndian.AppendUint32(buf, d)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(vals[i]))
	}
	return buf
}

// appendVecReport marshals one vector report frame (0x05) onto buf.
func appendVecReport(buf []byte, dims []uint32, vals []float64) []byte {
	buf = append(buf, frameVecReport)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(dims)))
	for _, d := range dims {
		buf = binary.BigEndian.AppendUint32(buf, d)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(vals)))
	for _, v := range vals {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// WriteReport serializes one pair-shaped report frame (0x01) to w through
// a pooled marshal buffer. Reports whose dim and value lists differ in
// length must use WriteVecReport.
func WriteReport(w io.Writer, rep est.Report) error {
	if len(rep.Dims) != len(rep.Values) {
		return fmt.Errorf("transport: report dims/values length mismatch")
	}
	return writePooled(w, func(b []byte) []byte { return appendReport(b, rep.Dims, rep.Values) })
}

// writePooled marshals one message with build into a pooled buffer and
// sends it with a single Write, so a reply costs one call on w and no
// allocation once the pool is warm.
func writePooled(w io.Writer, build func([]byte) []byte) error {
	bp := encPool.Get().(*[]byte)
	*bp = build((*bp)[:0])
	_, err := w.Write(*bp)
	putEncBuf(bp)
	return err
}

// readPooled reads exactly n bytes of r into the pooled buffer bp and
// returns them, valid until bp's next use.
func readPooled(r io.Reader, bp *[]byte, n int) ([]byte, error) {
	*bp = slices.Grow((*bp)[:0], n)[:n]
	_, err := io.ReadFull(r, *bp)
	return *bp, err
}

// readUint32Pooled reads one big-endian uint32 through bp.
func readUint32Pooled(r io.Reader, bp *[]byte) (uint32, error) {
	b, err := readPooled(r, bp, 4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// readFrameType reads the next frame type byte from r.
func readFrameType(r io.Reader) (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// readReportBody reads the payload of a pair-shaped report frame.
func readReportBody(r io.Reader) (est.Report, error) {
	var cnt uint32
	if err := binary.Read(r, binary.BigEndian, &cnt); err != nil {
		return est.Report{}, err
	}
	if cnt > maxPairs {
		return est.Report{}, fmt.Errorf("transport: report with %d pairs exceeds limit", cnt)
	}
	buf, err := readGrowing(r, 12*int(cnt))
	if err != nil {
		return est.Report{}, err
	}
	rep := est.Report{Dims: make([]uint32, cnt), Values: make([]float64, cnt)}
	for i := uint32(0); i < cnt; i++ {
		off := 12 * i
		rep.Dims[i] = binary.BigEndian.Uint32(buf[off:])
		rep.Values[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[off+4:]))
	}
	return rep, nil
}

// readGrowing reads exactly n bytes from r, growing its buffer in
// stages of at most max(bytes held, readStageMax) as they arrive, so a
// count field costs only the bytes that follow it. Errors are
// io.ReadFull's over the whole n: io.EOF when r ends before the first
// byte, io.ErrUnexpectedEOF when it ends after.
func readGrowing(r io.Reader, n int) ([]byte, error) {
	var buf []byte
	for have := 0; have < n; {
		step := min(n-have, max(have, readStageMax))
		buf = slices.Grow(buf, step)[:have+step]
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			if err == io.EOF && have > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		have += step
	}
	return buf, nil
}

// WriteVecReport serializes one vector report frame (0x05): dims and
// values as independently sized lists, through a pooled marshal buffer.
func WriteVecReport(w io.Writer, rep est.Report) error {
	return writePooled(w, func(b []byte) []byte { return appendVecReport(b, rep.Dims, rep.Values) })
}

// readVecReportBody reads the payload of a vector report frame.
func readVecReportBody(r io.Reader) (est.Report, error) {
	var nd uint32
	if err := binary.Read(r, binary.BigEndian, &nd); err != nil {
		return est.Report{}, err
	}
	if nd > maxPairs {
		return est.Report{}, fmt.Errorf("transport: report with %d dims exceeds limit", nd)
	}
	dbuf, err := readGrowing(r, 4*int(nd))
	if err != nil {
		return est.Report{}, err
	}
	rep := est.Report{Dims: make([]uint32, nd)}
	for i := range rep.Dims {
		rep.Dims[i] = binary.BigEndian.Uint32(dbuf[4*i:])
	}
	var nv uint32
	if err := binary.Read(r, binary.BigEndian, &nv); err != nil {
		return est.Report{}, err
	}
	if nv > maxPairs {
		return est.Report{}, fmt.Errorf("transport: report with %d values exceeds limit", nv)
	}
	vbuf, err := readGrowing(r, 8*int(nv))
	if err != nil {
		return est.Report{}, err
	}
	rep.Values = make([]float64, nv)
	for i := range rep.Values {
		rep.Values[i] = math.Float64frombits(binary.BigEndian.Uint64(vbuf[8*i:]))
	}
	return rep, nil
}

// writeHello writes one HELLO frame (0x12): token 0 asks the collector to
// open a new replay session, a prior token asks to resume it. Version 0
// is the legacy request, whose field is the bare token. A nonzero ver
// sends the versioned request (see cbatch.go): the token's low 48 bits
// under the versioned flag, ver as the client's maximum protocol
// version, and — with noSession — the flag that makes the exchange a
// negotiation-only ping touching no session state.
func writeHello(w io.Writer, token uint64, ver int, noSession bool) error {
	if ver != 0 {
		token = token&helloTokenMask | helloFlagVersioned |
			uint64(ver)<<helloVersionShift&helloVersionMask
		if noSession {
			token |= helloFlagNoSession
		}
	}
	var buf [9]byte
	buf[0] = frameHello
	binary.BigEndian.PutUint64(buf[1:], token)
	_, err := w.Write(buf[:])
	return err
}

// helloReply is the session state an acknowledged HELLO carries back:
// the (possibly newly minted) token, the last batch sequence number the
// collector durably applied, and the cumulative reports it accepted for
// the session. LastSeq tells a reconnecting client which pending batches
// to drop before replaying; Accepted reconciles its accounting for acks
// the old connection lost.
type helloReply struct {
	Token    uint64
	LastSeq  uint64
	Accepted uint64
}

// writeHelloReply writes the body that follows an ackOK HELLO status:
// the 24-byte session state, and — answering a versioned request, ver
// nonzero — one trailing byte, the negotiated protocol version ver.
func writeHelloReply(w io.Writer, h helloReply, ver int) error {
	var buf [25]byte
	binary.BigEndian.PutUint64(buf[0:], h.Token)
	binary.BigEndian.PutUint64(buf[8:], h.LastSeq)
	binary.BigEndian.PutUint64(buf[16:], h.Accepted)
	n := 24
	if ver != 0 {
		buf[24] = byte(ver)
		n = 25
	}
	_, err := w.Write(buf[:n])
	return err
}

// readHelloReply reads the body writeHelloReply writes in answer to a
// HELLO request of version ver (0 = legacy) and returns the negotiated
// version it carries — 0 for the legacy 24-byte form.
func readHelloReply(r io.Reader, ver int) (helloReply, int, error) {
	var buf [25]byte
	n := 24
	if ver != 0 {
		n = 25
	}
	if _, err := io.ReadFull(r, buf[:n]); err != nil {
		return helloReply{}, 0, err
	}
	h := helloReply{
		Token:    binary.BigEndian.Uint64(buf[0:]),
		LastSeq:  binary.BigEndian.Uint64(buf[8:]),
		Accepted: binary.BigEndian.Uint64(buf[16:]),
	}
	return h, int(buf[24]), nil
}

// discardBatchReports consumes cnt embedded report frames without
// decoding them — the shed path's body drain: a NACKed batch must still
// be read off the wire or the connection desyncs. Each frame passes
// through sc's byte arena, so at most one is resident at a time.
func discardBatchReports(br *bufio.Reader, sc *decodeScratch, cnt uint32) error {
	for i := uint32(0); i < cnt; i++ {
		ft, err := sc.readFrameType(br)
		if err != nil {
			return err
		}
		if _, err := sc.readFrame(br, ft); err != nil {
			return err
		}
	}
	return nil
}

// Batch chunking bounds for the unsequenced decode path: one scratch
// fill and one estimator AddReports (one stripe-lock acquisition) per
// chunk. The caps bound how much of a hostile batch is ever resident —
// the server never holds a whole unsequenced batch — while still
// amortizing the lock ~10³× .
const (
	batchChunkReports = 1024
	batchChunkValues  = 1 << 16
)

// maxSeqBatchValues caps the dim/value payload a sequenced batch may
// carry. Unlike the chunked path, sequenced batches are fully decoded
// before application (so a connection dying mid-batch can never leave a
// partially applied batch behind the exactly-once contract), which means
// the whole batch is resident at once and needs a hard bound.
const maxSeqBatchValues = 1 << 22

// decodeScratch is a per-connection reusable decode arena: frame bytes,
// dim/value backing arrays and the report headers sliced out of them.
// Reports decoded into a scratch alias its arrays and are only valid
// until the next reset — sinks must consume them synchronously (every
// estimator copies values into its accumulator lanes, so handing scratch
// reports to AddReports is safe). After warm-up the arrays reach their
// high-water size and the decode loop allocates nothing.
type decodeScratch struct {
	n    [8]byte
	b    []byte
	dims []uint32
	vals []float64
	reps []est.Report
}

// Scratch retention caps — the decode-side analogue of maxEncRetain:
// reset keeps arenas sized for the chunked batch loop but drops outliers
// grown by one oversized (protocol-legal, up to maxPairs) report, so a
// connection cannot pin tens of megabytes for its lifetime off a single
// giant frame.
const (
	maxRetainBytes = 1 << 20 // raw frame arena
	maxRetainLanes = 1 << 18 // dim/value arenas (entries)
)

func (sc *decodeScratch) reset() {
	if cap(sc.b) > maxRetainBytes {
		sc.b = nil
	}
	if cap(sc.dims) > maxRetainLanes {
		sc.dims = nil
	}
	if cap(sc.vals) > maxRetainLanes {
		sc.vals = nil
	}
	sc.dims = sc.dims[:0]
	sc.vals = sc.vals[:0]
	sc.reps = sc.reps[:0]
}

// readUint32 reads one big-endian uint32 without the reflection
// allocation of binary.Read.
func (sc *decodeScratch) readUint32(r io.Reader) (uint32, error) {
	if _, err := io.ReadFull(r, sc.n[:4]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(sc.n[:4]), nil
}

// readFrameType reads the next frame type byte through the scratch
// arena; the package-level readFrameType's stack buffer escapes into the
// io.Reader and costs one allocation per embedded frame.
func (sc *decodeScratch) readFrameType(r io.Reader) (byte, error) {
	if _, err := io.ReadFull(r, sc.n[:1]); err != nil {
		return 0, err
	}
	return sc.n[0], nil
}

// bytes returns an n-byte raw buffer, reusing the scratch's arena.
func (sc *decodeScratch) bytes(n int) []byte {
	if cap(sc.b) < n {
		sc.b = make([]byte, n)
	}
	return sc.b[:n]
}

// growDims extends the dim arena by n and returns the new tail. A
// reallocation leaves earlier reports aliasing the old array — still
// valid, just no longer shared.
func (sc *decodeScratch) growDims(n int) []uint32 {
	off := len(sc.dims)
	sc.dims = slices.Grow(sc.dims, n)[:off+n]
	return sc.dims[off:]
}

func (sc *decodeScratch) growVals(n int) []float64 {
	off := len(sc.vals)
	sc.vals = slices.Grow(sc.vals, n)[:off+n]
	return sc.vals[off:]
}

// decodePairs decodes cnt (dim, value) pairs from raw into the scratch
// arena and returns the report viewing them.
func (sc *decodeScratch) decodePairs(raw []byte, cnt int) est.Report {
	dims, vals := sc.growDims(cnt), sc.growVals(cnt)
	for i := 0; i < cnt; i++ {
		p := raw[12*i : 12*i+12 : 12*i+12] // full-slice hints bounds-check elimination
		dims[i] = binary.BigEndian.Uint32(p)
		vals[i] = math.Float64frombits(binary.BigEndian.Uint64(p[4:]))
	}
	return est.Report{Dims: dims, Values: vals}
}

// reportLen is the one place that knows the report-frame layout (0x01
// pairs, 0x05 vectors) and its limits. It returns the byte length of the
// frame at the start of w, type byte included, as far as w reveals it: a
// result larger than len(w) means "read at least this many bytes, then
// ask again". An unknown type byte or a count past maxPairs is an error
// as soon as w holds it.
func reportLen(w []byte) (int, error) {
	switch {
	case len(w) == 0:
		return 1, nil
	case w[0] != frameReport && w[0] != frameVecReport:
		return 0, fmt.Errorf("transport: batch embeds frame type 0x%02x", w[0])
	case len(w) < 5:
		return 5, nil
	}
	n := binary.BigEndian.Uint32(w[1:])
	if w[0] == frameReport {
		if n > maxPairs {
			return 0, fmt.Errorf("transport: report with %d pairs exceeds limit", n)
		}
		return 5 + 12*int(n), nil
	}
	if n > maxPairs {
		return 0, fmt.Errorf("transport: report with %d dims exceeds limit", n)
	}
	dimsEnd := 5 + 4*int(n)
	if len(w) < dimsEnd+4 {
		return dimsEnd + 4, nil
	}
	nv := binary.BigEndian.Uint32(w[dimsEnd:])
	if nv > maxPairs {
		return 0, fmt.Errorf("transport: report with %d values exceeds limit", nv)
	}
	return dimsEnd + 4 + 8*int(nv), nil
}

// decodeReport decodes one complete report frame — exactly the bytes
// reportLen measured — into the scratch arenas and returns the report
// viewing them, so it stays valid after frame's bytes are reused.
func (sc *decodeScratch) decodeReport(frame []byte) est.Report {
	n := int(binary.BigEndian.Uint32(frame[1:]))
	if frame[0] == frameReport {
		return sc.decodePairs(frame[5:], n)
	}
	dims := sc.growDims(n)
	for i := range dims {
		dims[i] = binary.BigEndian.Uint32(frame[5+4*i:])
	}
	raw := frame[9+4*n:]
	vals := sc.growVals(len(raw) / 8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*i:]))
	}
	return est.Report{Dims: dims, Values: vals}
}

// readStageMax is the most readFrame reads in one stage beyond what it
// already holds.
const readStageMax = 64 << 10

// readFrame reads the rest of one report frame, whose type byte ft is
// already consumed from r, into sc's byte arena — in as many stages as
// reportLen asks for — and returns the whole frame, type byte included.
// The frame is valid until the arena's next use. No stage reads more than
// max(held bytes, readStageMax), so the arena grows only as payload
// arrives: a bare header claiming maxPairs entries cannot make the
// collector allocate the 12 MiB it announces.
func (sc *decodeScratch) readFrame(r io.Reader, ft byte) ([]byte, error) {
	sc.b = append(sc.b[:0], ft)
	for {
		need, err := reportLen(sc.b)
		if err != nil {
			return nil, err
		}
		have := len(sc.b)
		if need <= have {
			return sc.b, nil
		}
		step := min(need-have, max(have, readStageMax))
		sc.b = slices.Grow(sc.b, step)[:have+step]
		if _, err := io.ReadFull(r, sc.b[have:]); err != nil {
			if err == io.EOF {
				// The type byte is consumed, so even a close exactly at a
				// stage boundary truncates the frame.
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
}

// readReport decodes the rest of one report frame of type ft — 0x01
// pairs or 0x05 vectors — into sc's reset arenas: the allocation-free
// sibling of readReportBody and readVecReportBody.
func readReport(ft byte, r io.Reader, sc *decodeScratch) (est.Report, error) {
	sc.reset()
	frame, err := sc.readFrame(r, ft)
	if err != nil {
		return est.Report{}, err
	}
	return sc.decodeReport(frame), nil
}

// readBatchBuffered decodes the cnt embedded report frames of an
// unsequenced batch body (count already consumed) in bounded chunks and
// hands each chunk to add — for BatchAdder estimators that is one
// stripe-lock acquisition per chunk instead of one per report. Reports
// the sink rejects are skipped, never fatal: accepted keeps counting the
// rest of the chunk and of the batch. A wire-level decode failure first
// ingests the cleanly decoded prefix, then returns the error (the caller
// tears the connection down).
func readBatchBuffered(br *bufio.Reader, sc *decodeScratch, cnt uint32, add func([]est.Report) (int, error)) (accepted uint32, err error) {
	for done := uint32(0); done < cnt; {
		sc.reset()
		n, err := sc.decodeBatch(br, min(cnt-done, batchChunkReports), batchChunkValues, math.MaxInt)
		done += n
		a, _ := add(sc.reps)
		accepted += uint32(a)
		if err != nil {
			return accepted, err
		}
	}
	return accepted, nil
}

// readSeqBatch decodes the cnt embedded report frames of a sequenced
// batch in full — no chunked hand-off — and returns them. The caller
// applies the whole slice atomically after a successful decode, so a
// wire error mid-batch ingests nothing. Reports alias sc's arenas and
// are valid until the next reset.
func readSeqBatch(br *bufio.Reader, sc *decodeScratch, cnt uint32) ([]est.Report, error) {
	sc.reset()
	if _, err := sc.decodeBatch(br, cnt, maxSeqBatchValues+1, maxSeqBatchValues+1); err != nil {
		return nil, err
	}
	if len(sc.vals) > maxSeqBatchValues || len(sc.dims) > maxSeqBatchValues {
		return nil, fmt.Errorf("transport: sequenced batch payload exceeds %d values", maxSeqBatchValues)
	}
	return sc.reps, nil
}

// decodeBatch appends up to cnt embedded report frames to sc.reps,
// stopping early once the value arena reaches maxVals entries or the
// dim arena maxDims, and returns how many it decoded; on error sc.reps
// holds the cleanly decoded prefix. Each pass peeks the whole buffered
// window, parses every complete frame out of it in one tight loop, and
// consumes them with a single Discard — bufio bookkeeping is paid per
// window, not per report. A frame that straddles the window edge (or
// exceeds the buffer) is read on its own through readFrame.
func (sc *decodeScratch) decodeBatch(br *bufio.Reader, cnt uint32, maxVals, maxDims int) (done uint32, err error) {
	for done < cnt && len(sc.vals) < maxVals && len(sc.dims) < maxDims {
		w, _ := br.Peek(br.Buffered())
		consumed := 0
		for done < cnt && len(sc.vals) < maxVals && len(sc.dims) < maxDims {
			// Inline fast path for the dominant wire shape: a pair report
			// complete in the window. Everything else (vec reports,
			// oversized counts, partial frames) goes through reportLen.
			if len(w)-consumed >= 5 && w[consumed] == frameReport {
				if pairs := int(binary.BigEndian.Uint32(w[consumed+1:])); pairs <= maxPairs && consumed+5+12*pairs <= len(w) {
					sc.reps = append(sc.reps, sc.decodePairs(w[consumed+5:consumed+5+12*pairs], pairs))
					consumed += 5 + 12*pairs
					done++
					continue
				}
			}
			n, perr := reportLen(w[consumed:])
			if perr != nil {
				br.Discard(consumed)
				return done, perr
			}
			if n > len(w)-consumed {
				break
			}
			sc.reps = append(sc.reps, sc.decodeReport(w[consumed:consumed+n]))
			consumed += n
			done++
		}
		br.Discard(consumed)
		if consumed > 0 {
			continue
		}
		// No complete frame buffered: block for exactly one.
		ft, err := sc.readFrameType(br)
		if err != nil {
			return done, err
		}
		frame, err := sc.readFrame(br, ft)
		if err != nil {
			return done, err
		}
		sc.reps = append(sc.reps, sc.decodeReport(frame))
		done++
	}
	return done, nil
}

// EncodeSnapshot serializes an est.Snapshot in the canonical wire layout
// (the SNAPSHOT/MERGE frame body, without a frame type byte): kind
// string, dims, then the Cards, Sums and Counts vectors. It is the codec
// the persist package embeds in checkpoint files, so on-disk and on-wire
// snapshots are byte-identical and stay in sync by construction. It
// enforces the same limits the reader does, so an unshippable snapshot
// fails with a clear error at the sender instead of a torn-down
// connection at the receiver. The body goes out in one Write from a
// pooled buffer.
func EncodeSnapshot(w io.Writer, s est.Snapshot) error {
	if err := checkSnapshot(s); err != nil {
		return err
	}
	return writePooled(w, func(b []byte) []byte { return appendSnapshot(b, s) })
}

// SnapshotLen is the length of s's EncodeSnapshot encoding, for callers
// that must announce it before streaming it (checkpoint files).
func SnapshotLen(s est.Snapshot) int {
	return 4 + len(s.Kind) + 4 + 4 + 4*len(s.Cards) + 4 + 8*len(s.Sums) + 4 + 8*len(s.Counts)
}

// checkSnapshot enforces the wire limits on a snapshot about to be sent.
func checkSnapshot(s est.Snapshot) error {
	if len(s.Kind) > maxKindLen {
		return fmt.Errorf("transport: snapshot kind %q exceeds %d bytes", s.Kind, maxKindLen)
	}
	if s.Dims > maxPairs || len(s.Cards) > maxPairs || len(s.Sums) > maxPairs || len(s.Counts) > maxPairs {
		return fmt.Errorf("transport: snapshot shape %d/%d/%d/%d exceeds the wire limit of %d",
			s.Dims, len(s.Cards), len(s.Sums), len(s.Counts), maxPairs)
	}
	return nil
}

// appendSnapshot marshals a checked snapshot body onto b.
func appendSnapshot(b []byte, s est.Snapshot) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Kind)))
	b = append(b, s.Kind...)
	b = binary.BigEndian.AppendUint32(b, uint32(s.Dims))
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Cards)))
	for _, c := range s.Cards {
		b = binary.BigEndian.AppendUint32(b, uint32(c))
	}
	b = appendFloats(b, s.Sums)
	return appendInts(b, s.Counts)
}

// DecodeSnapshot deserializes an est.Snapshot written by EncodeSnapshot,
// rejecting hostile length fields. Every field is read through one
// pooled buffer, so the snapshot's own fields are its only allocations.
func DecodeSnapshot(r io.Reader) (est.Snapshot, error) {
	bp := encPool.Get().(*[]byte)
	defer putEncBuf(bp)
	var s est.Snapshot
	kl, err := readUint32Pooled(r, bp)
	if err != nil {
		return s, err
	}
	if kl > maxKindLen {
		return s, fmt.Errorf("transport: snapshot kind of %d bytes exceeds limit", kl)
	}
	kind, err := readPooled(r, bp, int(kl))
	if err != nil {
		return s, err
	}
	s.Kind = string(kind)
	dims, err := readUint32Pooled(r, bp)
	if err != nil {
		return s, err
	}
	if dims > maxPairs {
		return s, fmt.Errorf("transport: snapshot with %d dims exceeds limit", dims)
	}
	s.Dims = int(dims)
	nc, err := readUint32Pooled(r, bp)
	if err != nil {
		return s, err
	}
	if nc > maxPairs {
		return s, fmt.Errorf("transport: snapshot with %d cards exceeds limit", nc)
	}
	if nc > 0 {
		buf, err := readPooled(r, bp, 4*int(nc))
		if err != nil {
			return s, err
		}
		s.Cards = make([]int, nc)
		for i := range s.Cards {
			s.Cards[i] = int(binary.BigEndian.Uint32(buf[4*i:]))
		}
	}
	if s.Sums, err = readFloats(r); err != nil {
		return s, err
	}
	if s.Counts, err = readInts(r); err != nil {
		return s, err
	}
	return s, nil
}

// WriteMerge serializes one merge frame (0x08): a serialized snapshot the
// receiving collector folds into its estimator.
func WriteMerge(w io.Writer, s est.Snapshot) error {
	if _, err := w.Write([]byte{frameMerge}); err != nil {
		return err
	}
	return EncodeSnapshot(w, s)
}

// writeFloats writes one vector reply in a single Write from a pooled
// buffer: the status bytes, if any, then a uint32 length followed by the
// values.
func writeFloats(w io.Writer, xs []float64, status ...byte) error {
	return writePooled(w, func(b []byte) []byte { return appendFloats(append(b, status...), xs) })
}

// writeInts is writeFloats for int64 values.
func writeInts(w io.Writer, xs []int64, status ...byte) error {
	return writePooled(w, func(b []byte) []byte { return appendInts(append(b, status...), xs) })
}

// appendFloats marshals a uint32 length followed by the values onto b,
// growing it once.
func appendFloats(b []byte, xs []float64) []byte {
	off := len(b)
	b = slices.Grow(b, 4+8*len(xs))[:off+4+8*len(xs)]
	binary.BigEndian.PutUint32(b[off:], uint32(len(xs)))
	out := b[off+4:]
	for i, x := range xs {
		binary.BigEndian.PutUint64(out[8*i:8*i+8], math.Float64bits(x))
	}
	return b
}

// appendInts is appendFloats for int64 values.
func appendInts(b []byte, xs []int64) []byte {
	off := len(b)
	b = slices.Grow(b, 4+8*len(xs))[:off+4+8*len(xs)]
	binary.BigEndian.PutUint32(b[off:], uint32(len(xs)))
	out := b[off+4:]
	for i, x := range xs {
		binary.BigEndian.PutUint64(out[8*i:8*i+8], uint64(x))
	}
	return b
}

// readFloats reads a uint32 length followed by that many float64s: the
// length and the payload each in one io.ReadFull through a pooled
// buffer, so the returned vector is the only allocation.
func readFloats(r io.Reader) ([]float64, error) {
	bp := encPool.Get().(*[]byte)
	defer putEncBuf(bp)
	raw, err := readVecPayload(r, bp)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*i : 8*i+8]))
	}
	return out, nil
}

// readInts reads a uint32 length followed by that many int64s, exactly
// as readFloats.
func readInts(r io.Reader) ([]int64, error) {
	bp := encPool.Get().(*[]byte)
	defer putEncBuf(bp)
	raw, err := readVecPayload(r, bp)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(raw)/8)
	for i := range out {
		out[i] = int64(binary.BigEndian.Uint64(raw[8*i : 8*i+8]))
	}
	return out, nil
}

// readVecPayload reads a vector's uint32 length, rejecting one past
// maxPairs, and then its 8-byte entries through bp.
func readVecPayload(r io.Reader, bp *[]byte) ([]byte, error) {
	n, err := readUint32Pooled(r, bp)
	if err != nil {
		return nil, err
	}
	if n > maxPairs {
		return nil, fmt.Errorf("transport: vector of %d values exceeds limit", n)
	}
	return readPooled(r, bp, 8*int(n))
}

// writeString writes a uint32 length followed by the bytes of s, in one
// Write from a pooled buffer.
func writeString(w io.Writer, s string, max int) error {
	if err := checkString(s, max); err != nil {
		return err
	}
	return writePooled(w, func(b []byte) []byte { return appendString(b, s) })
}

// checkString enforces a string field's length limit before it is sent.
func checkString(s string, max int) error {
	if len(s) > max {
		return fmt.Errorf("transport: string of %d bytes exceeds limit %d", len(s), max)
	}
	return nil
}

// appendString marshals a uint32 length followed by the bytes of s onto
// b.
func appendString(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
}

// readString reads a uint32 length followed by that many bytes, rejecting
// lengths beyond max. Both go through one pooled buffer, so the string is
// the only allocation.
func readString(r io.Reader, max int) (string, error) {
	bp := encPool.Get().(*[]byte)
	defer putEncBuf(bp)
	n, err := readUint32Pooled(r, bp)
	if err != nil {
		return "", err
	}
	if n > uint32(max) {
		return "", fmt.Errorf("transport: string of %d bytes exceeds limit %d", n, max)
	}
	b, err := readPooled(r, bp, int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// writeSelect writes one SELECT route header (0x0A), in one Write from a
// pooled buffer: the next frame on the connection executes against the
// named query.
func writeSelect(w io.Writer, name string) error {
	if err := checkString(name, maxNameLen); err != nil {
		return err
	}
	return writePooled(w, func(b []byte) []byte { return appendString(append(b, frameSelect), name) })
}

// writeSelectGen writes one SELECTGEN route header (0x10), exactly as
// writeSelect: the next frame executes against the named query only if
// its registration generation still matches gen.
func writeSelectGen(w io.Writer, name string, gen uint64) error {
	if err := checkString(name, maxNameLen); err != nil {
		return err
	}
	return writePooled(w, func(b []byte) []byte {
		return binary.BigEndian.AppendUint64(appendString(append(b, frameSelectGen), name), gen)
	})
}

// EncodeQuerySpec serializes an est.QuerySpec in the canonical wire
// layout (the OPENQUERY frame body, without the frame type byte — the
// spec codec checkpoint files embed): name, kind and mechanism strings,
// the ε budget, d and m, then the cardinality vector, in one Write from
// a pooled buffer.
func EncodeQuerySpec(w io.Writer, spec est.QuerySpec) error {
	if err := checkString(spec.Name, maxNameLen); err != nil {
		return err
	}
	if err := checkString(spec.Kind, maxKindLen); err != nil {
		return err
	}
	if err := checkString(spec.Mech, maxKindLen); err != nil {
		return err
	}
	if spec.D < 0 || spec.D > maxPairs || spec.M < 0 || spec.M > maxPairs || len(spec.Cards) > maxPairs {
		return fmt.Errorf("transport: query spec shape %d/%d/%d exceeds the wire limit of %d",
			spec.D, spec.M, len(spec.Cards), maxPairs)
	}
	return writePooled(w, func(b []byte) []byte {
		b = appendString(appendString(appendString(b, spec.Name), spec.Kind), spec.Mech)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(spec.Eps))
		b = binary.BigEndian.AppendUint32(b, uint32(spec.D))
		b = binary.BigEndian.AppendUint32(b, uint32(spec.M))
		b = binary.BigEndian.AppendUint32(b, uint32(len(spec.Cards)))
		for _, c := range spec.Cards {
			b = binary.BigEndian.AppendUint32(b, uint32(c))
		}
		return b
	})
}

// QuerySpecLen is the length of spec's EncodeQuerySpec encoding.
func QuerySpecLen(spec est.QuerySpec) int {
	return 4 + len(spec.Name) + 4 + len(spec.Kind) + 4 + len(spec.Mech) + 8 + 4 + 4 + 4 + 4*len(spec.Cards)
}

// DecodeQuerySpec deserializes an est.QuerySpec written by
// EncodeQuerySpec, rejecting hostile length fields.
func DecodeQuerySpec(r io.Reader) (est.QuerySpec, error) {
	var spec est.QuerySpec
	var err error
	if spec.Name, err = readString(r, maxNameLen); err != nil {
		return spec, err
	}
	if spec.Kind, err = readString(r, maxKindLen); err != nil {
		return spec, err
	}
	if spec.Mech, err = readString(r, maxKindLen); err != nil {
		return spec, err
	}
	var fixed [16]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return spec, err
	}
	spec.Eps = math.Float64frombits(binary.BigEndian.Uint64(fixed[:8]))
	d := binary.BigEndian.Uint32(fixed[8:12])
	m := binary.BigEndian.Uint32(fixed[12:16])
	if d > maxPairs || m > maxPairs {
		return spec, fmt.Errorf("transport: query spec d=%d m=%d exceeds limit", d, m)
	}
	spec.D, spec.M = int(d), int(m)
	var n uint32
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return spec, err
	}
	if n > maxPairs {
		return spec, fmt.Errorf("transport: query spec with %d cards exceeds limit", n)
	}
	if n > 0 {
		buf := make([]byte, 4*n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return spec, err
		}
		spec.Cards = make([]int, n)
		total := 0
		for i := range spec.Cards {
			c := binary.BigEndian.Uint32(buf[4*i:])
			// The flattened entry space Σ cards is what the collector
			// allocates; a hostile card value must not force that
			// allocation past the same bound every report vector obeys.
			if c > maxPairs {
				return spec, fmt.Errorf("transport: query spec card %d exceeds limit", c)
			}
			if total += int(c); total > maxPairs {
				return spec, fmt.Errorf("transport: query spec with %d total entries exceeds limit %d", total, maxPairs)
			}
			spec.Cards[i] = int(c)
		}
	}
	return spec, nil
}

// WriteOpenQuery serializes one OPENQUERY frame (0x09): the spec of a new
// named query for the receiving collector to register.
func WriteOpenQuery(w io.Writer, spec est.QuerySpec) error {
	if _, err := w.Write([]byte{frameOpenQuery}); err != nil {
		return err
	}
	return EncodeQuerySpec(w, spec)
}
