// Wire protocol v2: the columnar batch frame (0x13 CBATCH) and the
// negotiated codec surface around it.
//
//	0x13 CBATCH    uint32 route length + route bytes (0 = the default
//	     query; CBATCH carries its route in-frame, so a SELECT/SELECTGEN
//	     prefix is a protocol error), uint64 sequence number (0 on
//	     un-sessioned connections; ≥ 1 and deduped exactly as a sequenced
//	     0x06 after a HELLO), uint32 report count n, uint32 ndims, uint32
//	     nvals, then ndims dimension columns (each uint32 byte length +
//	     hybrid-RLE delta-varint data, see below), then n×nvals float64
//	     values, little endian, row major, as one contiguous run. The
//	     reply is the batch reply: a status byte plus uint32 accepted
//	     (ackRetry stands alone). CBATCH is rectangular — every report
//	     shares the (ndims, nvals) shape — which is what lets the server
//	     decode whole columns instead of per-report frames. EPOCH does
//	     not compose with CBATCH: 0x13 is a top-level frame only.
//
// Dimension column encoding (hybrid RLE over zigzag-varint deltas).
// Column c holds report dims[c] for every report, delta-coded against the
// previous entry (the first against 0). Groups follow, each a uvarint
// header h: h&1 == 1 is a run — one zigzag-varint delta repeated h>>1
// times; h&1 == 0 is a literal — h>>1 zigzag-varint deltas. The steady
// telemetry shape (every report sampling the same dimensions) collapses
// to a single run group of zero deltas — a few bytes per column per
// thousand reports — while adversarial dims degrade gracefully to
// literals, never above ~10 bytes/entry. Runs fire only when reports
// repeat their dims. The paper's uniform m-of-d sampling does not: two
// consecutive reports rarely share a delta, so its columns are almost
// all literal, at ~1.5 bytes/entry for (d, m) = (1024, 32), where a
// column's deltas stay below 2¹⁴ and every varint is one or two bytes.
//
// Protocol negotiation piggybacks on HELLO (0x12). A v2 client sets the
// high bit of the token field (helloFlagVersioned) and carries its
// maximum supported version in bits 48–55; session tokens are minted
// inside the low 48 bits, so a legacy 9-byte HELLO is never misread as
// versioned. The server answers a versioned HELLO with a 25-byte body —
// the legacy 24 bytes plus one trailing byte: min(client max, server
// max), the negotiated version the connection is pinned to. A second
// flag bit (helloFlagNoSession) makes the exchange a pure negotiation
// ping: no session is opened or resumed, the session fields come back
// zero. Connections that never negotiate stay on v1; the server itself
// is stateless about negotiation and accepts 0x13 from anyone — only
// clients gate their encoder on the negotiated version.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/hdr4me/hdr4me/internal/est"
)

// Wire protocol versions a connection can negotiate.
const (
	// ProtocolV1 is the original per-report frame grammar (0x01–0x12).
	ProtocolV1 = 1
	// ProtocolV2 adds the columnar batch frame (0x13 CBATCH).
	ProtocolV2 = 2
	// ProtocolMax is the highest version this build speaks.
	ProtocolMax = ProtocolV2
)

// HELLO token-field flag layout for versioned negotiation. Session
// tokens occupy the low 48 bits (newSessionToken masks to helloTokenMask),
// the version rides bits 48–55, bits 56–61 are reserved, and the two top
// bits flag the request shape.
const (
	helloFlagVersioned = uint64(1) << 63
	helloFlagNoSession = uint64(1) << 62
	helloVersionShift  = 48
	helloVersionMask   = uint64(0xFF) << helloVersionShift
	helloTokenMask     = uint64(1)<<helloVersionShift - 1
)

// writeHelloVersioned writes a versioned HELLO frame: the session token
// (low 48 bits; 0 opens a session) with the flag bit set and the
// client's maximum protocol version in the version bits. noSession turns
// the exchange into a negotiation-only ping that touches no session
// state.
func writeHelloVersioned(w io.Writer, token uint64, maxVer int, noSession bool) error {
	v := token&helloTokenMask | helloFlagVersioned |
		uint64(maxVer)<<helloVersionShift&helloVersionMask
	if noSession {
		v |= helloFlagNoSession
	}
	var buf [9]byte
	buf[0] = frameHello
	binary.BigEndian.PutUint64(buf[1:], v)
	_, err := w.Write(buf[:])
	return err
}

// writeHelloReplyBodyV writes the 25-byte body answering a versioned
// HELLO: the legacy 24-byte session state plus the negotiated protocol
// version.
func writeHelloReplyBodyV(w io.Writer, h helloReply, version int) error {
	var buf [25]byte
	binary.BigEndian.PutUint64(buf[0:], h.Token)
	binary.BigEndian.PutUint64(buf[8:], h.LastSeq)
	binary.BigEndian.PutUint64(buf[16:], h.Accepted)
	buf[24] = byte(version)
	_, err := w.Write(buf[:])
	return err
}

// readHelloReplyBodyV reads the body written by writeHelloReplyBodyV.
func readHelloReplyBodyV(r io.Reader) (helloReply, int, error) {
	var buf [25]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return helloReply{}, 0, err
	}
	h := helloReply{
		Token:    binary.BigEndian.Uint64(buf[0:]),
		LastSeq:  binary.BigEndian.Uint64(buf[8:]),
		Accepted: binary.BigEndian.Uint64(buf[16:]),
	}
	return h, int(buf[24]), nil
}

// zigzag folds a signed delta into the unsigned varint space so small
// magnitudes of either sign stay short.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// rleMinRun is the shortest delta run worth a run group; shorter spans
// fold into the surrounding literals.
const rleMinRun = 2

// appendRLEColumn marshals one dimension column onto buf: the n entries
// col[0], col[stride], col[2·stride], … delta-coded and grouped as the
// package doc describes. stride lets the encoder walk a row-major dims
// array column-wise without gathering.
//
// It grows buf once, by the column's wire bound, and writes by index.
// A literal span's deltas are written as the span is scanned, each
// computed once, behind a header slot sized for the longest span the
// rest of the column allows; when the span's own header is shorter, the
// body moves down to meet it.
func appendRLEColumn(buf []byte, col []uint32, stride, n int) []byte {
	buf = slices.Grow(buf, int(maxRLEColumnLen(n)))
	out := buf[:cap(buf)]
	pos := len(buf)
	at := func(i int) int64 { return int64(col[i*stride]) }
	prev := int64(0)
	for i := 0; i < n; {
		// Length of the run of identical deltas starting at i.
		d := at(i) - prev
		run := 1
		for i+run < n && at(i+run)-at(i+run-1) == d {
			run++
		}
		if run >= rleMinRun {
			pos = putUvarint(out, pos, uint64(run)<<1|1)
			pos = putUvarint(out, pos, zigzag(d))
			i += run
			prev = at(i - 1)
			continue
		}
		// Literal span: up to the next position where a run begins. cur
		// is the delta at i, next the one after it.
		start, hdr := i, pos
		slot := uvarintLen(uint64(n-start) << 1)
		pos += slot
		cur := d
		for {
			if z := zigzag(cur); z < 1<<14 {
				pos = put12(out, pos, z)
			} else {
				pos += binary.PutUvarint(out[pos:], z)
			}
			if i++; i == n {
				break
			}
			next := at(i) - at(i-1)
			if i+1 < n && at(i+1)-at(i) == next {
				break
			}
			cur = next
		}
		prev = at(i - 1)
		h := uint64(i-start) << 1
		if k := uvarintLen(h); k < slot {
			copy(out[hdr+k:], out[hdr+slot:pos])
			pos -= slot - k
		}
		binary.PutUvarint(out[hdr:], h) // exact length: the body follows
	}
	return out[:pos]
}

// putUvarint writes v as a uvarint at out[pos:] and returns the position
// after it. It may store one byte past the varint (see put12), so out
// must have a byte of slack there.
func putUvarint(out []byte, pos int, v uint64) int {
	if v < 1<<14 {
		return put12(out, pos, v)
	}
	return pos + binary.PutUvarint(out[pos:], v)
}

// put12 writes v < 2¹⁴ — every delta of a uniform m-of-d sample at the
// ledger's shapes — as its one- or two-byte uvarint, without a branch on
// which: it stores both bytes and advances by one or two. The second
// store may land one byte past the varint, so out must have a byte of
// slack there, and nothing already written may follow pos.
func put12(out []byte, pos int, v uint64) int {
	more := (v + 1<<14 - 1<<7) >> 14 // 1 when v ≥ 2⁷
	binary.LittleEndian.PutUint16(out[pos:], uint16(v&0x7f|more<<7|v>>7<<8))
	return pos + 1 + int(more)
}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// maxRLEColumnLen bounds the wire size of one n-entry column: a literal
// entry is at most 10 varint bytes, plus slack for group headers. The
// decoder rejects longer length fields before allocating. The encoder
// writes at most 5 bytes per entry (deltas stay within ±2³²) plus a
// header of at most 3 bytes per two entries, so the bound also covers
// putUvarint's byte of slack.
func maxRLEColumnLen(n int) uint32 { return uint32(10*n + 16) }

// decodeRLEColumn decodes an n-entry column from data into
// out[0], out[stride], …, enforcing that every reconstructed entry stays
// in uint32 range and that data holds exactly the encoded groups.
// Overflow is caught arithmetically: the accumulator enters each step in
// [0, 2³²), so any int64 wraparound lands negative, which the one
// unsigned range check rejects along with values past 2³² − 1. Literal
// deltas of one or two bytes (both of the next two bytes tested at
// once) decode inline; longer ones, and a delta in the last byte of
// data, go through binary.Uvarint.
func decodeRLEColumn(data []byte, out []uint32, stride, n int) error {
	acc := int64(0)
	pos := 0
	for i := 0; i < n; {
		h, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return fmt.Errorf("transport: malformed RLE group header")
		}
		pos += k
		cnt := h >> 1
		if cnt == 0 || cnt > uint64(n-i) {
			return fmt.Errorf("transport: RLE group of %d entries outside column of %d", cnt, n)
		}
		c := int(cnt)
		if h&1 == 1 {
			u, k := binary.Uvarint(data[pos:])
			if k <= 0 {
				return fmt.Errorf("transport: malformed RLE run delta")
			}
			pos += k
			d := unzigzag(u)
			for j := 0; j < c; j++ {
				acc += d
				if uint64(acc) > math.MaxUint32 {
					return fmt.Errorf("transport: RLE entry outside uint32 range")
				}
				out[(i+j)*stride] = uint32(acc)
			}
		} else {
			for j := 0; j < c; j++ {
				var u uint64
				if pos+1 < len(data) && data[pos]&data[pos+1] < 0x80 {
					b0, b1 := uint64(data[pos]), uint64(data[pos+1])
					two := b0 >> 7
					u = b0&0x7f | b1<<7&-two
					pos += 1 + int(two)
				} else {
					var k int
					if u, k = binary.Uvarint(data[pos:]); k <= 0 {
						return fmt.Errorf("transport: malformed RLE literal delta")
					}
					pos += k
				}
				acc += unzigzag(u)
				if uint64(acc) > math.MaxUint32 {
					return fmt.Errorf("transport: RLE entry outside uint32 range")
				}
				out[(i+j)*stride] = uint32(acc)
			}
		}
		i += c
	}
	if pos != len(data) {
		return fmt.Errorf("transport: %d trailing bytes after RLE column", len(data)-pos)
	}
	return nil
}

// checkCBatchShape enforces the wire limits shared by every CBATCH
// encoder and the server's decoder: the batch cap, the per-report shape
// cap, and the whole-batch payload cap sequenced decoding already obeys.
func checkCBatchShape(n, ndims, nvals int) error {
	if n > maxBatch {
		return fmt.Errorf("transport: batch of %d reports exceeds limit %d", n, maxBatch)
	}
	if ndims > maxPairs || nvals > maxPairs {
		return fmt.Errorf("transport: cbatch report shape (%d,%d) exceeds limit %d", ndims, nvals, maxPairs)
	}
	if int64(n)*int64(ndims) > maxSeqBatchValues || int64(n)*int64(nvals) > maxSeqBatchValues {
		return fmt.Errorf("transport: cbatch payload %d×(%d,%d) exceeds %d values", n, ndims, nvals, maxSeqBatchValues)
	}
	return nil
}

// appendCBatchHeader marshals the fixed CBATCH prefix: type byte, route,
// sequence number and the (n, ndims, nvals) shape.
func appendCBatchHeader(dst []byte, query string, seq uint64, n, ndims, nvals int) ([]byte, error) {
	if len(query) > maxNameLen {
		return nil, fmt.Errorf("transport: string of %d bytes exceeds limit %d", len(query), maxNameLen)
	}
	if err := checkCBatchShape(n, ndims, nvals); err != nil {
		return nil, err
	}
	dst = append(dst, frameCBatch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(query)))
	dst = append(dst, query...)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = binary.BigEndian.AppendUint32(dst, uint32(ndims))
	dst = binary.BigEndian.AppendUint32(dst, uint32(nvals))
	return dst, nil
}

// appendCBatchColumns marshals one whole CBATCH frame onto dst from
// columnar staging: n row-major rectangular reports whose dims and
// values already live in flat arrays (report i owns
// dims[i*ndims:(i+1)*ndims] and vals[i*nvals:(i+1)*nvals]). This is the
// zero-alloc encode path BufferedClient ships through — the columns go
// to the wire without materializing any per-report structure.
func appendCBatchColumns(dst []byte, query string, seq uint64, n, ndims, nvals int, dims []uint32, vals []float64) ([]byte, error) {
	if err := est.CheckColumns(n, ndims, nvals, len(dims), len(vals)); err != nil {
		return nil, err
	}
	dst, err := appendCBatchHeader(dst, query, seq, n, ndims, nvals)
	if err != nil {
		return nil, err
	}
	for c := 0; c < ndims; c++ {
		off := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		if n > 0 {
			dst = appendRLEColumn(dst, dims[c:], ndims, n)
		}
		binary.BigEndian.PutUint32(dst[off:], uint32(len(dst)-off-4))
	}
	return appendFloats(dst, vals[:n*nvals]), nil
}

// appendFloats appends vals as little-endian float64 bits, growing dst
// once.
func appendFloats(dst []byte, vals []float64) []byte {
	off := len(dst)
	dst = slices.Grow(dst, 8*len(vals))[:off+8*len(vals)]
	out := dst[off:]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return dst
}

// colPool recycles the column-gather scratch appendCBatchReports uses,
// so encoding row-shaped batches stays allocation-free after warm-up.
var colPool = sync.Pool{New: func() any { b := make([]uint32, 0, 4096); return &b }}

func putColBuf(cp *[]uint32) {
	if cap(*cp) > maxRetainLanes {
		return
	}
	*cp = (*cp)[:0]
	colPool.Put(cp)
}

// appendCBatchReports marshals one CBATCH frame from row-shaped reports
// that the caller has verified rectangular: every report has ndims dims
// and nvals values. Columns are gathered through pooled scratch, values
// stream straight from the reports.
func appendCBatchReports(dst []byte, query string, seq uint64, reps []est.Report, ndims, nvals int) ([]byte, error) {
	dst, err := appendCBatchHeader(dst, query, seq, len(reps), ndims, nvals)
	if err != nil {
		return nil, err
	}
	cp := colPool.Get().(*[]uint32)
	col := (*cp)[:0]
	for c := 0; c < ndims; c++ {
		col = col[:0]
		for _, rep := range reps {
			col = append(col, rep.Dims[c])
		}
		off := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		dst = appendRLEColumn(dst, col, 1, len(reps))
		binary.BigEndian.PutUint32(dst[off:], uint32(len(dst)-off-4))
	}
	*cp = col
	putColBuf(cp)
	dst = slices.Grow(dst, 8*len(reps)*nvals)
	for _, rep := range reps {
		dst = appendFloats(dst, rep.Values)
	}
	return dst, nil
}

// cbatchValueChunk bounds the raw-byte chunk the value run is read
// through, so a maximal frame never demands a frame-sized contiguous
// buffer.
const cbatchValueChunk = 64 << 10

// decodeCBatchBody decodes the CBATCH payload after the fixed header —
// ndims RLE columns and the value run — into sc's arenas and returns
// the row-major dims and vals arrays, shaped for est.AddColumns. The
// shape must already have passed checkCBatchShape.
func decodeCBatchBody(br *bufio.Reader, sc *decodeScratch, n, ndims, nvals int) (dims []uint32, vals []float64, err error) {
	sc.reset()
	dims = sc.growDims(n * ndims)
	for c := 0; c < ndims; c++ {
		clen, err := sc.readUint32(br)
		if err != nil {
			return nil, nil, err
		}
		if clen > maxRLEColumnLen(n) {
			return nil, nil, fmt.Errorf("transport: cbatch column of %d bytes exceeds limit", clen)
		}
		raw := sc.bytes(int(clen))
		if _, err := io.ReadFull(br, raw); err != nil {
			return nil, nil, err
		}
		var out []uint32
		if n > 0 {
			out = dims[c:]
		}
		if err := decodeRLEColumn(raw, out, ndims, n); err != nil {
			return nil, nil, err
		}
	}
	vals = sc.growVals(n * nvals)
	for off := 0; off < len(vals); {
		chunk := len(vals) - off
		if chunk > cbatchValueChunk/8 {
			chunk = cbatchValueChunk / 8
		}
		raw := sc.bytes(8 * chunk)
		if _, err := io.ReadFull(br, raw); err != nil {
			return nil, nil, err
		}
		for i := 0; i < chunk; i++ {
			vals[off+i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		off += chunk
	}
	return dims, vals, nil
}

// discardCBatchBody consumes a CBATCH payload without decoding it — the
// shed path's body drain, mirroring discardBatchReports.
func discardCBatchBody(br *bufio.Reader, sc *decodeScratch, n, ndims, nvals int) error {
	for c := 0; c < ndims; c++ {
		clen, err := sc.readUint32(br)
		if err != nil {
			return err
		}
		if clen > maxRLEColumnLen(n) {
			return fmt.Errorf("transport: cbatch column of %d bytes exceeds limit", clen)
		}
		if _, err := br.Discard(int(clen)); err != nil {
			return err
		}
	}
	_, err := br.Discard(8 * n * nvals)
	return err
}

// FrameCodec is the versioned batch codec: one implementation per wire
// protocol version, so callers marshal and unmarshal batch exchanges
// without knowing which frame grammar the connection negotiated.
// AppendBatch marshals a whole batch frame (route prefix included; an
// empty query means the default route, seq 0 means un-sequenced) onto
// dst. DecodeBatch reads one batch frame — route and sequence included
// — returning deep-copied reports; sequenced tells the v1 grammar
// (whose 0x06 frame is not self-describing) whether the connection's
// session grammar puts a sequence field after the type byte. DecodeBatch
// is the reference decode path: the server decodes a 0x06 body with one
// zero-alloc windowed decoder (decodeBatch, behind readBatchBuffered and
// readSeqBatch), and tests and fuzzers diff that decoder against it.
type FrameCodec interface {
	Version() int
	AppendBatch(dst []byte, query string, seq uint64, reps []est.Report) ([]byte, error)
	DecodeBatch(br *bufio.Reader, sequenced bool) (query string, seq uint64, reps []est.Report, err error)
}

// CodecFor returns the codec for a negotiated protocol version.
func CodecFor(v int) (FrameCodec, error) {
	switch v {
	case ProtocolV1:
		return CodecV1{}, nil
	case ProtocolV2:
		return CodecV2{}, nil
	}
	return nil, fmt.Errorf("transport: unknown protocol version %d", v)
}

// CodecV1 marshals batches in the original frame grammar: an optional
// SELECT route prefix, then a 0x06 BATCH of embedded report frames.
type CodecV1 struct{}

// Version returns ProtocolV1.
func (CodecV1) Version() int { return ProtocolV1 }

// AppendBatch marshals a SELECT-prefixed (when query is non-empty),
// optionally sequenced (when seq is non-zero) 0x06 batch frame onto dst.
func (CodecV1) AppendBatch(dst []byte, query string, seq uint64, reps []est.Report) ([]byte, error) {
	if len(reps) > maxBatch {
		return nil, fmt.Errorf("transport: batch of %d reports exceeds limit %d", len(reps), maxBatch)
	}
	if query != "" {
		if len(query) > maxNameLen {
			return nil, fmt.Errorf("transport: string of %d bytes exceeds limit %d", len(query), maxNameLen)
		}
		dst = append(dst, frameSelect)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(query)))
		dst = append(dst, query...)
	}
	dst = append(dst, frameBatch)
	if seq != 0 {
		dst = binary.BigEndian.AppendUint64(dst, seq)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(reps)))
	for _, rep := range reps {
		if len(rep.Dims) == len(rep.Values) {
			dst = appendReport(dst, rep)
		} else {
			dst = appendVecReport(dst, rep)
		}
	}
	return dst, nil
}

// DecodeBatch reads one v1 batch frame: an optional SELECT prefix, the
// 0x06 type byte, the sequence field when sequenced, then the embedded
// report frames, each deep-copied out of the stream.
func (CodecV1) DecodeBatch(br *bufio.Reader, sequenced bool) (string, uint64, []est.Report, error) {
	ft, err := readFrameType(br)
	if err != nil {
		return "", 0, nil, err
	}
	var query string
	if ft == frameSelect {
		if query, err = readString(br, maxNameLen); err != nil {
			return "", 0, nil, err
		}
		if ft, err = readFrameType(br); err != nil {
			return "", 0, nil, err
		}
	}
	if ft != frameBatch {
		return "", 0, nil, fmt.Errorf("transport: expected batch frame, got 0x%02x", ft)
	}
	var seq uint64
	if sequenced {
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return "", 0, nil, err
		}
		seq = binary.BigEndian.Uint64(buf[:])
	}
	var cnt uint32
	if err := binary.Read(br, binary.BigEndian, &cnt); err != nil {
		return "", 0, nil, err
	}
	if cnt > maxBatch {
		return "", 0, nil, fmt.Errorf("transport: batch of %d reports exceeds limit %d", cnt, maxBatch)
	}
	reps := make([]est.Report, 0, cnt)
	for i := uint32(0); i < cnt; i++ {
		ft, err := readFrameType(br)
		if err != nil {
			return "", 0, nil, err
		}
		var rep est.Report
		switch ft {
		case frameReport:
			rep, err = readReportBody(br)
		case frameVecReport:
			rep, err = readVecReportBody(br)
		default:
			err = fmt.Errorf("transport: batch embeds frame type 0x%02x", ft)
		}
		if err != nil {
			return "", 0, nil, err
		}
		reps = append(reps, rep)
	}
	return query, seq, reps, nil
}

// CodecV2 marshals rectangular batches as columnar 0x13 CBATCH frames
// and falls back to the v1 grammar for ragged ones — the v2 frame
// grammar is a superset of v1, so a v2 connection carries both shapes.
type CodecV2 struct{}

// Version returns ProtocolV2.
func (CodecV2) Version() int { return ProtocolV2 }

// AppendBatch marshals reps as one CBATCH frame when the batch is
// rectangular (every report shares one (ndims, nvals) shape — the empty
// batch included), and as a v1 batch frame otherwise.
func (CodecV2) AppendBatch(dst []byte, query string, seq uint64, reps []est.Report) ([]byte, error) {
	ndims, nvals := 0, 0
	for i, rep := range reps {
		if i == 0 {
			ndims, nvals = len(rep.Dims), len(rep.Values)
			continue
		}
		if len(rep.Dims) != ndims || len(rep.Values) != nvals {
			return CodecV1{}.AppendBatch(dst, query, seq, reps)
		}
	}
	return appendCBatchReports(dst, query, seq, reps, ndims, nvals)
}

// DecodeBatch reads one batch frame in the v2 grammar: a 0x13 CBATCH
// decoded columnar, or any v1 batch shape via the v1 codec.
func (CodecV2) DecodeBatch(br *bufio.Reader, sequenced bool) (string, uint64, []est.Report, error) {
	hdr, err := br.Peek(1)
	if err != nil {
		return "", 0, nil, err
	}
	if hdr[0] != frameCBatch {
		return CodecV1{}.DecodeBatch(br, sequenced)
	}
	br.Discard(1)
	var sc decodeScratch
	query, err := readString(br, maxNameLen)
	if err != nil {
		return "", 0, nil, err
	}
	if _, err := io.ReadFull(br, sc.n[:8]); err != nil {
		return "", 0, nil, err
	}
	seq := binary.BigEndian.Uint64(sc.n[:8])
	cnt, err := sc.readUint32(br)
	if err != nil {
		return "", 0, nil, err
	}
	ndims, err := sc.readUint32(br)
	if err != nil {
		return "", 0, nil, err
	}
	nvals, err := sc.readUint32(br)
	if err != nil {
		return "", 0, nil, err
	}
	if cnt > maxBatch || ndims > maxPairs || nvals > maxPairs {
		return "", 0, nil, fmt.Errorf("transport: cbatch shape %d×(%d,%d) exceeds limits", cnt, ndims, nvals)
	}
	n, nd, nv := int(cnt), int(ndims), int(nvals)
	if err := checkCBatchShape(n, nd, nv); err != nil {
		return "", 0, nil, err
	}
	dims, vals, err := decodeCBatchBody(br, &sc, n, nd, nv)
	if err != nil {
		return "", 0, nil, err
	}
	reps := make([]est.Report, n)
	for i := range reps {
		reps[i] = est.Report{
			Dims:   append([]uint32{}, dims[i*nd:(i+1)*nd]...),
			Values: append([]float64{}, vals[i*nv:(i+1)*nv]...),
		}
	}
	return query, seq, reps, nil
}
