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

// appendReport marshals one pair-shaped report frame (0x01) onto buf.
func appendReport(buf []byte, rep est.Report) []byte {
	buf = append(buf, frameReport)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rep.Dims)))
	for i, d := range rep.Dims {
		buf = binary.BigEndian.AppendUint32(buf, d)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(rep.Values[i]))
	}
	return buf
}

// appendVecReport marshals one vector report frame (0x05) onto buf.
func appendVecReport(buf []byte, rep est.Report) []byte {
	buf = append(buf, frameVecReport)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rep.Dims)))
	for _, d := range rep.Dims {
		buf = binary.BigEndian.AppendUint32(buf, d)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rep.Values)))
	for _, v := range rep.Values {
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
	bp := encPool.Get().(*[]byte)
	*bp = appendReport((*bp)[:0], rep)
	_, err := w.Write(*bp)
	putEncBuf(bp)
	return err
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
	rep := est.Report{Dims: make([]uint32, cnt), Values: make([]float64, cnt)}
	buf := make([]byte, 12*cnt)
	if _, err := io.ReadFull(r, buf); err != nil {
		return est.Report{}, err
	}
	for i := uint32(0); i < cnt; i++ {
		off := 12 * i
		rep.Dims[i] = binary.BigEndian.Uint32(buf[off:])
		rep.Values[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[off+4:]))
	}
	return rep, nil
}

// WriteVecReport serializes one vector report frame (0x05): dims and
// values as independently sized lists, through a pooled marshal buffer.
func WriteVecReport(w io.Writer, rep est.Report) error {
	bp := encPool.Get().(*[]byte)
	*bp = appendVecReport((*bp)[:0], rep)
	_, err := w.Write(*bp)
	putEncBuf(bp)
	return err
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
	rep := est.Report{Dims: make([]uint32, nd)}
	dbuf := make([]byte, 4*nd)
	if _, err := io.ReadFull(r, dbuf); err != nil {
		return est.Report{}, err
	}
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
	rep.Values = make([]float64, nv)
	vbuf := make([]byte, 8*nv)
	if _, err := io.ReadFull(r, vbuf); err != nil {
		return est.Report{}, err
	}
	for i := range rep.Values {
		rep.Values[i] = math.Float64frombits(binary.BigEndian.Uint64(vbuf[8*i:]))
	}
	return rep, nil
}

// writeHello writes one HELLO frame (0x12): token 0 asks the collector to
// open a new replay session, a prior token asks to resume it.
func writeHello(w io.Writer, token uint64) error {
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

// writeHelloReplyBody writes the 24-byte body that follows an ackOK HELLO
// status.
func writeHelloReplyBody(w io.Writer, h helloReply) error {
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[0:], h.Token)
	binary.BigEndian.PutUint64(buf[8:], h.LastSeq)
	binary.BigEndian.PutUint64(buf[16:], h.Accepted)
	_, err := w.Write(buf[:])
	return err
}

// readHelloReplyBody reads the body written by writeHelloReplyBody.
func readHelloReplyBody(r io.Reader) (helloReply, error) {
	var buf [24]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return helloReply{}, err
	}
	return helloReply{
		Token:    binary.BigEndian.Uint64(buf[0:]),
		LastSeq:  binary.BigEndian.Uint64(buf[8:]),
		Accepted: binary.BigEndian.Uint64(buf[16:]),
	}, nil
}

// discardBatchReports consumes cnt embedded report frames without
// decoding them — the shed path's body drain: a NACKed batch must still
// be read off the wire or the connection desyncs.
func discardBatchReports(br *bufio.Reader, sc *decodeScratch, cnt uint32) error {
	for i := uint32(0); i < cnt; i++ {
		ft, err := sc.readFrameType(br)
		if err != nil {
			return err
		}
		switch ft {
		case frameReport:
			n, err := sc.readUint32(br)
			if err != nil {
				return err
			}
			if n > maxPairs {
				return fmt.Errorf("transport: report with %d pairs exceeds limit", n)
			}
			if _, err := br.Discard(12 * int(n)); err != nil {
				return err
			}
		case frameVecReport:
			nd, err := sc.readUint32(br)
			if err != nil {
				return err
			}
			if nd > maxPairs {
				return fmt.Errorf("transport: report with %d dims exceeds limit", nd)
			}
			if _, err := br.Discard(4 * int(nd)); err != nil {
				return err
			}
			nv, err := sc.readUint32(br)
			if err != nil {
				return err
			}
			if nv > maxPairs {
				return fmt.Errorf("transport: report with %d values exceeds limit", nv)
			}
			if _, err := br.Discard(8 * int(nv)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("transport: batch embeds frame type 0x%02x", ft)
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

// readReportBodyInto decodes a pair-shaped report frame body into the
// scratch arena — the allocation-free sibling of readReportBody.
func readReportBodyInto(r io.Reader, sc *decodeScratch) (est.Report, error) {
	cnt, err := sc.readUint32(r)
	if err != nil {
		return est.Report{}, err
	}
	return readReportPairs(r, sc, cnt)
}

// readReportPairs reads the cnt pairs of a 0x01 frame whose count field
// is already consumed.
func readReportPairs(r io.Reader, sc *decodeScratch, cnt uint32) (est.Report, error) {
	if cnt > maxPairs {
		return est.Report{}, fmt.Errorf("transport: report with %d pairs exceeds limit", cnt)
	}
	buf := sc.bytes(12 * int(cnt))
	if _, err := io.ReadFull(r, buf); err != nil {
		return est.Report{}, err
	}
	return sc.decodePairs(buf, int(cnt)), nil
}

// readVecReportBodyInto decodes a vector report frame body into the
// scratch arena — the allocation-free sibling of readVecReportBody.
func readVecReportBodyInto(r io.Reader, sc *decodeScratch) (est.Report, error) {
	nd, err := sc.readUint32(r)
	if err != nil {
		return est.Report{}, err
	}
	return readVecReportRest(r, sc, nd)
}

// readVecReportRest reads a 0x05 frame whose dim-count field is already
// consumed.
func readVecReportRest(r io.Reader, sc *decodeScratch, nd uint32) (est.Report, error) {
	if nd > maxPairs {
		return est.Report{}, fmt.Errorf("transport: report with %d dims exceeds limit", nd)
	}
	dbuf := sc.bytes(4 * int(nd))
	if _, err := io.ReadFull(r, dbuf); err != nil {
		return est.Report{}, err
	}
	dims := sc.growDims(int(nd))
	for i := range dims {
		dims[i] = binary.BigEndian.Uint32(dbuf[4*i:])
	}
	nv, err := sc.readUint32(r)
	if err != nil {
		return est.Report{}, err
	}
	if nv > maxPairs {
		return est.Report{}, fmt.Errorf("transport: report with %d values exceeds limit", nv)
	}
	vbuf := sc.bytes(8 * int(nv))
	if _, err := io.ReadFull(r, vbuf); err != nil {
		return est.Report{}, err
	}
	vals := sc.growVals(int(nv))
	for i := range vals {
		vals[i] = math.Float64frombits(binary.BigEndian.Uint64(vbuf[8*i:]))
	}
	return est.Report{Dims: dims, Values: vals}, nil
}

// parseEmbedded decodes one embedded report frame from the byte window w
// without consuming anything: it returns the report plus how many bytes
// it spans, n == 0 when the frame is incomplete in w (read more first),
// or an error for an undecodable frame. Dim/value payloads are copied
// into the scratch arenas, so the report stays valid after w is
// discarded.
func (sc *decodeScratch) parseEmbedded(w []byte) (rep est.Report, n int, err error) {
	if len(w) < 5 {
		return est.Report{}, 0, nil
	}
	switch w[0] {
	case frameReport:
		cnt := binary.BigEndian.Uint32(w[1:])
		if cnt > maxPairs {
			return est.Report{}, 0, fmt.Errorf("transport: report with %d pairs exceeds limit", cnt)
		}
		need := 5 + 12*int(cnt)
		if len(w) < need {
			return est.Report{}, 0, nil
		}
		return sc.decodePairs(w[5:need], int(cnt)), need, nil
	case frameVecReport:
		nd := binary.BigEndian.Uint32(w[1:])
		if nd > maxPairs {
			return est.Report{}, 0, fmt.Errorf("transport: report with %d dims exceeds limit", nd)
		}
		dimsEnd := 5 + 4*int(nd)
		if len(w) < dimsEnd+4 {
			return est.Report{}, 0, nil
		}
		nv := binary.BigEndian.Uint32(w[dimsEnd:])
		if nv > maxPairs {
			return est.Report{}, 0, fmt.Errorf("transport: report with %d values exceeds limit", nv)
		}
		need := dimsEnd + 4 + 8*int(nv)
		if len(w) < need {
			return est.Report{}, 0, nil
		}
		dims := sc.growDims(int(nd))
		for i := range dims {
			dims[i] = binary.BigEndian.Uint32(w[5+4*i:])
		}
		vals := sc.growVals(int(nv))
		for i := range vals {
			vals[i] = math.Float64frombits(binary.BigEndian.Uint64(w[dimsEnd+4+8*i:]))
		}
		return est.Report{Dims: dims, Values: vals}, need, nil
	default:
		return est.Report{}, 0, fmt.Errorf("transport: batch embeds frame type 0x%02x", w[0])
	}
}

// decodeEmbeddedPeek decodes one embedded report frame straight out of
// the bufio window — no per-field ReadFull calls, no copy into the byte
// arena — falling back to the streaming readers only when a frame
// overflows the buffer. decodeBatch uses it as the blocking path when
// the buffered window holds no complete frame.
func decodeEmbeddedPeek(br *bufio.Reader, sc *decodeScratch) (est.Report, error) {
	hdr, err := br.Peek(5)
	if err != nil {
		return est.Report{}, err
	}
	switch hdr[0] {
	case frameReport:
		cnt := binary.BigEndian.Uint32(hdr[1:])
		if cnt > maxPairs {
			return est.Report{}, fmt.Errorf("transport: report with %d pairs exceeds limit", cnt)
		}
		if need := 5 + 12*int(cnt); need <= br.Size() {
			raw, err := br.Peek(need)
			if err != nil {
				return est.Report{}, err
			}
			rep := sc.decodePairs(raw[5:], int(cnt))
			br.Discard(need)
			return rep, nil
		}
		br.Discard(5)
		return readReportPairs(br, sc, cnt)
	case frameVecReport:
		nd := binary.BigEndian.Uint32(hdr[1:])
		if nd > maxPairs {
			return est.Report{}, fmt.Errorf("transport: report with %d dims exceeds limit", nd)
		}
		dimsEnd := 5 + 4*int(nd)
		if dimsEnd+4 <= br.Size() {
			raw, err := br.Peek(dimsEnd + 4)
			if err != nil {
				return est.Report{}, err
			}
			nv := binary.BigEndian.Uint32(raw[dimsEnd:])
			if nv > maxPairs {
				return est.Report{}, fmt.Errorf("transport: report with %d values exceeds limit", nv)
			}
			if need := dimsEnd + 4 + 8*int(nv); need <= br.Size() {
				if raw, err = br.Peek(need); err != nil {
					return est.Report{}, err
				}
				dims := sc.growDims(int(nd))
				for i := range dims {
					dims[i] = binary.BigEndian.Uint32(raw[5+4*i:])
				}
				vals := sc.growVals(int(nv))
				for i := range vals {
					vals[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[dimsEnd+4+8*i:]))
				}
				br.Discard(need)
				return est.Report{Dims: dims, Values: vals}, nil
			}
		}
		br.Discard(5)
		return readVecReportRest(br, sc, nd)
	default:
		return est.Report{}, fmt.Errorf("transport: batch embeds frame type 0x%02x", hdr[0])
	}
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
// window, not per report. Frames that straddle the window edge (or
// exceed the buffer) take the blocking per-frame path.
func (sc *decodeScratch) decodeBatch(br *bufio.Reader, cnt uint32, maxVals, maxDims int) (done uint32, err error) {
	for done < cnt && len(sc.vals) < maxVals && len(sc.dims) < maxDims {
		w, _ := br.Peek(br.Buffered())
		consumed := 0
		for done < cnt && len(sc.vals) < maxVals && len(sc.dims) < maxDims {
			// Inline fast path for the dominant wire shape: a pair report
			// complete in the window. Everything else (vec reports,
			// oversized counts, partial frames) takes parseEmbedded.
			if len(w)-consumed >= 5 && w[consumed] == frameReport {
				if pairs := int(binary.BigEndian.Uint32(w[consumed+1:])); pairs <= maxPairs && consumed+5+12*pairs <= len(w) {
					sc.reps = append(sc.reps, sc.decodePairs(w[consumed+5:consumed+5+12*pairs], pairs))
					consumed += 5 + 12*pairs
					done++
					continue
				}
			}
			rep, n, perr := sc.parseEmbedded(w[consumed:])
			if perr != nil {
				br.Discard(consumed)
				return done, perr
			}
			if n == 0 {
				break
			}
			consumed += n
			sc.reps = append(sc.reps, rep)
			done++
		}
		br.Discard(consumed)
		if consumed > 0 {
			continue
		}
		// No complete frame buffered: block for exactly one.
		rep, err := decodeEmbeddedPeek(br, sc)
		if err != nil {
			return done, err
		}
		sc.reps = append(sc.reps, rep)
		done++
	}
	return done, nil
}

// writeSnapshotBody serializes an est.Snapshot: kind string, dims, then
// the Cards, Sums and Counts vectors. It enforces the same limits the
// reader does, so an unshippable snapshot fails with a clear error at the
// sender instead of a torn-down connection at the receiver.
func writeSnapshotBody(w io.Writer, s est.Snapshot) error {
	if len(s.Kind) > maxKindLen {
		return fmt.Errorf("transport: snapshot kind %q exceeds %d bytes", s.Kind, maxKindLen)
	}
	if s.Dims > maxPairs || len(s.Cards) > maxPairs || len(s.Sums) > maxPairs || len(s.Counts) > maxPairs {
		return fmt.Errorf("transport: snapshot shape %d/%d/%d/%d exceeds the wire limit of %d",
			s.Dims, len(s.Cards), len(s.Sums), len(s.Counts), maxPairs)
	}
	hdr := make([]byte, 4+len(s.Kind)+4)
	binary.BigEndian.PutUint32(hdr, uint32(len(s.Kind)))
	copy(hdr[4:], s.Kind)
	binary.BigEndian.PutUint32(hdr[4+len(s.Kind):], uint32(s.Dims))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	cards := make([]byte, 4+4*len(s.Cards))
	binary.BigEndian.PutUint32(cards, uint32(len(s.Cards)))
	for i, c := range s.Cards {
		binary.BigEndian.PutUint32(cards[4+4*i:], uint32(c))
	}
	if _, err := w.Write(cards); err != nil {
		return err
	}
	if err := writeFloats(w, s.Sums); err != nil {
		return err
	}
	return writeInts(w, s.Counts)
}

// readSnapshotBody deserializes an est.Snapshot written by
// writeSnapshotBody, rejecting hostile length fields.
func readSnapshotBody(r io.Reader) (est.Snapshot, error) {
	var s est.Snapshot
	var kl uint32
	if err := binary.Read(r, binary.BigEndian, &kl); err != nil {
		return s, err
	}
	if kl > maxKindLen {
		return s, fmt.Errorf("transport: snapshot kind of %d bytes exceeds limit", kl)
	}
	kind := make([]byte, kl)
	if _, err := io.ReadFull(r, kind); err != nil {
		return s, err
	}
	s.Kind = string(kind)
	var dims uint32
	if err := binary.Read(r, binary.BigEndian, &dims); err != nil {
		return s, err
	}
	if dims > maxPairs {
		return s, fmt.Errorf("transport: snapshot with %d dims exceeds limit", dims)
	}
	s.Dims = int(dims)
	var nc uint32
	if err := binary.Read(r, binary.BigEndian, &nc); err != nil {
		return s, err
	}
	if nc > maxPairs {
		return s, fmt.Errorf("transport: snapshot with %d cards exceeds limit", nc)
	}
	if nc > 0 {
		buf := make([]byte, 4*nc)
		if _, err := io.ReadFull(r, buf); err != nil {
			return s, err
		}
		s.Cards = make([]int, nc)
		for i := range s.Cards {
			s.Cards[i] = int(binary.BigEndian.Uint32(buf[4*i:]))
		}
	}
	var err error
	if s.Sums, err = readFloats(r); err != nil {
		return s, err
	}
	if s.Counts, err = readInts(r); err != nil {
		return s, err
	}
	return s, nil
}

// EncodeSnapshot serializes an est.Snapshot in the canonical wire layout
// (the SNAPSHOT/MERGE frame body, without a frame type byte). It is the
// codec the persist package embeds in checkpoint files, so on-disk and
// on-wire snapshots are byte-identical and stay in sync by construction.
func EncodeSnapshot(w io.Writer, s est.Snapshot) error { return writeSnapshotBody(w, s) }

// DecodeSnapshot deserializes an est.Snapshot written by EncodeSnapshot,
// rejecting hostile length fields exactly as the wire reader does.
func DecodeSnapshot(r io.Reader) (est.Snapshot, error) { return readSnapshotBody(r) }

// EncodeQuerySpec serializes an est.QuerySpec in the canonical wire
// layout (the OPENQUERY frame body, without the frame type byte) — the
// spec codec checkpoint files embed.
func EncodeQuerySpec(w io.Writer, spec est.QuerySpec) error { return writeQuerySpecBody(w, spec) }

// DecodeQuerySpec deserializes an est.QuerySpec written by
// EncodeQuerySpec, rejecting hostile length fields.
func DecodeQuerySpec(r io.Reader) (est.QuerySpec, error) { return readQuerySpecBody(r) }

// WriteMerge serializes one merge frame (0x08): a serialized snapshot the
// receiving collector folds into its estimator.
func WriteMerge(w io.Writer, s est.Snapshot) error {
	if _, err := w.Write([]byte{frameMerge}); err != nil {
		return err
	}
	return writeSnapshotBody(w, s)
}

// writeFloats writes a uint32 length followed by the values.
func writeFloats(w io.Writer, xs []float64) error {
	buf := make([]byte, 4+8*len(xs))
	binary.BigEndian.PutUint32(buf, uint32(len(xs)))
	for i, x := range xs {
		binary.BigEndian.PutUint64(buf[4+8*i:], math.Float64bits(x))
	}
	_, err := w.Write(buf)
	return err
}

// readFloats reads a uint32 length followed by that many float64s.
func readFloats(r io.Reader) ([]float64, error) {
	var n uint32
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return nil, err
	}
	if n > maxPairs {
		return nil, fmt.Errorf("transport: vector of %d values exceeds limit", n)
	}
	buf := make([]byte, 8*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}

// writeInts writes a uint32 length followed by int64 values.
func writeInts(w io.Writer, xs []int64) error {
	buf := make([]byte, 4+8*len(xs))
	binary.BigEndian.PutUint32(buf, uint32(len(xs)))
	for i, x := range xs {
		binary.BigEndian.PutUint64(buf[4+8*i:], uint64(x))
	}
	_, err := w.Write(buf)
	return err
}

// writeString writes a uint32 length followed by the bytes of s.
func writeString(w io.Writer, s string, max int) error {
	if len(s) > max {
		return fmt.Errorf("transport: string of %d bytes exceeds limit %d", len(s), max)
	}
	buf := make([]byte, 4+len(s))
	binary.BigEndian.PutUint32(buf, uint32(len(s)))
	copy(buf[4:], s)
	_, err := w.Write(buf)
	return err
}

// readString reads a uint32 length followed by that many bytes, rejecting
// lengths beyond max.
func readString(r io.Reader, max int) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return "", err
	}
	if n > uint32(max) {
		return "", fmt.Errorf("transport: string of %d bytes exceeds limit %d", n, max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// writeSelect writes one SELECT route header (0x0A): the next frame on the
// connection executes against the named query.
func writeSelect(w io.Writer, name string) error {
	if _, err := w.Write([]byte{frameSelect}); err != nil {
		return err
	}
	return writeString(w, name, maxNameLen)
}

// writeSelectGen writes one SELECTGEN route header (0x10): the next frame
// executes against the named query only if its registration generation
// still matches gen.
func writeSelectGen(w io.Writer, name string, gen uint64) error {
	if _, err := w.Write([]byte{frameSelectGen}); err != nil {
		return err
	}
	if err := writeString(w, name, maxNameLen); err != nil {
		return err
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], gen)
	_, err := w.Write(buf[:])
	return err
}

// writeQuerySpecBody serializes an est.QuerySpec: name, kind and mechanism
// strings, the ε budget, d and m, then the cardinality vector.
func writeQuerySpecBody(w io.Writer, spec est.QuerySpec) error {
	if err := writeString(w, spec.Name, maxNameLen); err != nil {
		return err
	}
	if err := writeString(w, spec.Kind, maxKindLen); err != nil {
		return err
	}
	if err := writeString(w, spec.Mech, maxKindLen); err != nil {
		return err
	}
	if spec.D < 0 || spec.D > maxPairs || spec.M < 0 || spec.M > maxPairs || len(spec.Cards) > maxPairs {
		return fmt.Errorf("transport: query spec shape %d/%d/%d exceeds the wire limit of %d",
			spec.D, spec.M, len(spec.Cards), maxPairs)
	}
	buf := make([]byte, 8+4+4+4+4*len(spec.Cards))
	binary.BigEndian.PutUint64(buf, math.Float64bits(spec.Eps))
	binary.BigEndian.PutUint32(buf[8:], uint32(spec.D))
	binary.BigEndian.PutUint32(buf[12:], uint32(spec.M))
	binary.BigEndian.PutUint32(buf[16:], uint32(len(spec.Cards)))
	for i, c := range spec.Cards {
		binary.BigEndian.PutUint32(buf[20+4*i:], uint32(c))
	}
	_, err := w.Write(buf)
	return err
}

// readQuerySpecBody deserializes an est.QuerySpec written by
// writeQuerySpecBody, rejecting hostile length fields.
func readQuerySpecBody(r io.Reader) (est.QuerySpec, error) {
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
	return writeQuerySpecBody(w, spec)
}

// readInts reads a uint32 length followed by that many int64s.
func readInts(r io.Reader) ([]int64, error) {
	var n uint32
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return nil, err
	}
	if n > maxPairs {
		return nil, fmt.Errorf("transport: vector of %d values exceeds limit", n)
	}
	buf := make([]byte, 8*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.BigEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}
