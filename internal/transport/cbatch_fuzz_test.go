package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
)

// FuzzRoundTripCBatch: any whole frame the v2 codec accepts — a 0x13
// CBATCH or a v1 frame it delegates — must re-encode to a frame that
// decodes to the same route, sequence and bit-identical reports. The
// RLE dimension columns and the little-endian value run both face
// hostile inputs here: bad varints, over-long columns, trailing bytes,
// deltas that wrap past the uint32 range.
func FuzzRoundTripCBatch(f *testing.F) {
	seedFrame := func(query string, seq uint64, reps []est.Report) {
		frame, err := CodecV2{}.AppendBatch(nil, query, seq, reps)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	seedFrame("", 0, []est.Report{{Dims: []uint32{7}, Values: []float64{0.5}}})
	seedFrame("pets", 0, []est.Report{
		{Dims: []uint32{1, 2}, Values: []float64{0.25, -0.25}},
		{Dims: []uint32{1, 3}, Values: []float64{1, -1}},
	})
	seedFrame("", 9, []est.Report{
		{Dims: []uint32{4, 4, 4}, Values: []float64{math.Pi}},
		{Dims: []uint32{4, 5, 1 << 20}, Values: []float64{-1e300}},
	})
	seedFrame("", 0, nil)
	// Ragged reports fall back to the v1 grammar inside AppendBatch; the
	// decoder must take that branch too.
	seedFrame("", 0, []est.Report{
		{Dims: []uint32{0}, Values: []float64{0.5}},
		{Values: []float64{1, -1}},
	})
	f.Add([]byte{frameCBatch, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{frameCBatch, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 1, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		query, seq, reps, err := CodecV2{}.DecodeBatch(bufio.NewReader(bytes.NewReader(data)), true)
		if err != nil {
			return
		}
		frame, err := CodecV2{}.AppendBatch(nil, query, seq, reps)
		if err != nil {
			t.Fatalf("re-encode decoded batch: %v", err)
		}
		// A v1 frame with seq 0 re-encodes without the sequence field, so
		// the re-decode's sequenced flag must follow the sequence value.
		query2, seq2, reps2, err := CodecV2{}.DecodeBatch(bufio.NewReader(bytes.NewReader(frame)), seq != 0)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if query2 != query || seq2 != seq || len(reps2) != len(reps) {
			t.Fatalf("round trip (%q, %d, %d reports) vs (%q, %d, %d reports)",
				query2, seq2, len(reps2), query, seq, len(reps))
		}
		for i := range reps {
			if !reportsEqual(reps[i], reps2[i]) {
				t.Fatalf("report %d mismatch: %+v vs %+v", i, reps[i], reps2[i])
			}
		}
	})
}

// FuzzCBatchDecodeParity: the same rectangular reports shipped once
// through the v1 row grammar (BATCH encode, the served windowed decode,
// AddReports per chunk) and once through the v2 columnar grammar (CBATCH
// encode, bulk column decode, AddColumns) — each the exact server ingest
// path into a stripe lane, minus the socket — must leave two aggregators
// in bitwise-identical state: same accepted count, same Sums bits, same
// Counts. This is the estimate-preservation guarantee of the v2 frame.
func FuzzCBatchDecodeParity(f *testing.F) {
	f.Add(uint32(3), 0.5, -0.25, uint8(4), uint8(2))
	f.Add(uint32(0), math.Inf(1), math.NaN(), uint8(1), uint8(1))
	f.Add(uint32(1<<31), -1e300, 1e-300, uint8(31), uint8(3))
	f.Fuzz(func(t *testing.T, dim uint32, v1, v2 float64, nn, shape uint8) {
		n := int(nn%32) + 1
		ndims := int(shape % 4) // 0 dims exercises the no-column layout
		nvals := ndims          // the mean family accepts (dim, value) pairs
		if ndims == 0 {
			nvals = 1 // and skips shape-mismatched reports — parity must hold anyway
		}
		reps := make([]est.Report, n)
		for i := range reps {
			dims := make([]uint32, ndims)
			vals := make([]float64, nvals)
			for j := range dims {
				dims[j] = (dim + uint32(i*ndims+j)) % 11 // some in range, some not when dim is hostile
			}
			for j := range vals {
				if (i+j)%2 == 0 {
					vals[j] = v1
				} else {
					vals[j] = v2
				}
			}
			reps[i] = est.Report{Dims: dims, Values: vals}
		}

		p, err := highdim.NewProtocol(ldp.Laplace{}, 1, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		aggV1, aggV2 := highdim.NewAggregator(p), highdim.NewAggregator(p)

		// v1 path: row frame, windowed decode, AddReports per chunk into
		// a lane — the serveBatch ingest path without the socket.
		frame1, err := CodecV1{}.AppendBatch(nil, "", 0, reps)
		if err != nil {
			t.Fatalf("v1 encode: %v", err)
		}
		br1 := bufio.NewReader(bytes.NewReader(frame1))
		if ft, err := readFrameType(br1); err != nil || ft != frameBatch {
			t.Fatalf("frame type 0x%02x, err %v; want BATCH", ft, err)
		}
		sc1 := &decodeScratch{}
		cnt1, err := sc1.readUint32(br1)
		if err != nil || int(cnt1) != n {
			t.Fatalf("batch count %d, err %v; want %d", cnt1, err, n)
		}
		acc1, err := readBatchBuffered(br1, sc1, cnt1, aggV1.AcquireLane().AddReports)
		if err != nil {
			t.Fatalf("v1 served decode: %v", err)
		}
		accV1 := int(acc1)

		// v2 path: columnar frame, bulk column decode, AddColumns into a
		// lane — the serveCBatch ingest path without the socket.
		frame2, err := CodecV2{}.AppendBatch(nil, "", 0, reps)
		if err != nil {
			t.Fatalf("v2 encode: %v", err)
		}
		br := bufio.NewReader(bytes.NewReader(frame2))
		if ft, err := readFrameType(br); err != nil || ft != frameCBatch {
			t.Fatalf("frame type 0x%02x, err %v; want CBATCH", ft, err)
		}
		var hdr [24]byte // route length (0) + seq + count + ndims + nvals
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			t.Fatalf("cbatch header: %v", err)
		}
		if nl := binary.BigEndian.Uint32(hdr[0:]); nl != 0 {
			t.Fatalf("route length %d; want 0", nl)
		}
		cnt := int(binary.BigEndian.Uint32(hdr[12:]))
		nd := int(binary.BigEndian.Uint32(hdr[16:]))
		nv := int(binary.BigEndian.Uint32(hdr[20:]))
		if cnt != n || nd != ndims || nv != nvals {
			t.Fatalf("decoded shape %d×(%d,%d); want %d×(%d,%d)", cnt, nd, nv, n, ndims, nvals)
		}
		sc := &decodeScratch{}
		dims, vals, err := decodeCBatchBody(br, sc, cnt, nd, nv)
		if err != nil {
			t.Fatalf("cbatch body: %v", err)
		}
		accV2, _ := est.AddColumns(aggV2.AcquireLane(), cnt, nd, nv, dims, vals)

		if accV1 != accV2 {
			t.Fatalf("accepted %d via v1, %d via v2", accV1, accV2)
		}
		s1, s2 := aggV1.Snapshot(), aggV2.Snapshot()
		if len(s1.Sums) != len(s2.Sums) || len(s1.Counts) != len(s2.Counts) {
			t.Fatalf("snapshot shapes differ: %d/%d vs %d/%d", len(s1.Sums), len(s1.Counts), len(s2.Sums), len(s2.Counts))
		}
		for i := range s1.Sums {
			if math.Float64bits(s1.Sums[i]) != math.Float64bits(s2.Sums[i]) {
				t.Fatalf("sum %d: %x via v1, %x via v2", i, math.Float64bits(s1.Sums[i]), math.Float64bits(s2.Sums[i]))
			}
		}
		for i := range s1.Counts {
			if s1.Counts[i] != s2.Counts[i] {
				t.Fatalf("count %d: %d via v1, %d via v2", i, s1.Counts[i], s2.Counts[i])
			}
		}
	})
}

// refDecodeRLEColumn is the reference dims-column decoder: one
// binary.Uvarint per header and per delta, and a two-sided range check
// on every reconstructed entry. decodeRLEColumn must agree with it.
func refDecodeRLEColumn(data []byte, out []uint32, stride, n int) error {
	acc := int64(0)
	pos := 0
	for i := 0; i < n; {
		h, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return errors.New("malformed RLE group header")
		}
		pos += k
		cnt := h >> 1
		if cnt == 0 || cnt > uint64(n-i) {
			return errors.New("RLE group outside column")
		}
		c := int(cnt)
		if h&1 == 1 {
			u, k := binary.Uvarint(data[pos:])
			if k <= 0 {
				return errors.New("malformed RLE run delta")
			}
			pos += k
			d := unzigzag(u)
			for j := 0; j < c; j++ {
				acc += d
				if acc < 0 || acc > math.MaxUint32 {
					return errors.New("RLE entry outside uint32 range")
				}
				out[(i+j)*stride] = uint32(acc)
			}
		} else {
			for j := 0; j < c; j++ {
				u, k := binary.Uvarint(data[pos:])
				if k <= 0 {
					return errors.New("malformed RLE literal delta")
				}
				pos += k
				acc += unzigzag(u)
				if acc < 0 || acc > math.MaxUint32 {
					return errors.New("RLE entry outside uint32 range")
				}
				out[(i+j)*stride] = uint32(acc)
			}
		}
		i += c
	}
	if pos != len(data) {
		return errors.New("trailing bytes after RLE column")
	}
	return nil
}

// refAppendRLEColumn is the reference dims-column encoder: the grouping
// rule of the package doc, one binary.AppendUvarint per header and per
// delta. appendRLEColumn must produce its bytes exactly.
func refAppendRLEColumn(buf []byte, col []uint32, stride, n int) []byte {
	prev := int64(0)
	for i := 0; i < n; {
		d := int64(col[i*stride]) - prev
		run := 1
		for i+run < n && int64(col[(i+run)*stride])-int64(col[(i+run-1)*stride]) == d {
			run++
		}
		if run >= rleMinRun {
			buf = binary.AppendUvarint(buf, uint64(run)<<1|1)
			buf = binary.AppendUvarint(buf, zigzag(d))
			i += run
			prev = int64(col[(i-1)*stride])
			continue
		}
		start := i
		for i++; i < n; i++ {
			d := int64(col[i*stride]) - int64(col[(i-1)*stride])
			if i+1 < n && int64(col[(i+1)*stride])-int64(col[i*stride]) == d {
				break
			}
		}
		buf = binary.AppendUvarint(buf, uint64(i-start)<<1)
		for j := start; j < i; j++ {
			v := int64(col[j*stride])
			buf = binary.AppendUvarint(buf, zigzag(v-prev))
			prev = v
		}
	}
	return buf
}

// FuzzRLEColumnParity: on arbitrary bytes and any (n, stride),
// decodeRLEColumn and the reference decoder must both accept or both
// reject, and leave the same entries in out — the entries written
// before a rejection included. The same bytes, read as a column of
// little-endian uint16 deltas (small deltas, so runs and one- and
// two-byte varints all occur), must encode to the reference encoder's
// bytes, after a prefix the encoder must leave alone.
func FuzzRLEColumnParity(f *testing.F) {
	seedColumn := func(col []uint32, stride uint8) {
		f.Add(appendRLEColumn(nil, col, 1, len(col)), uint16(len(col)), stride)
	}
	seedColumn([]uint32{7, 7, 7, 7}, 0)
	seedColumn([]uint32{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181, 6765, 10946, 17711}, 2)
	seedColumn([]uint32{1 << 31, 3 << 30, 1, 1 << 14, 1<<28 + 1, math.MaxUint32, 0, 0, 9}, 3)
	seedColumn([]uint32{0, 63, 64, 127, 8191, 8192, 8191, 64, 63, 0}, 1)
	long := make([]uint32, 300)
	for i := range long {
		long[i] = uint32(i * (i + 1) / 2)
	}
	seedColumn(long, 4)
	f.Add([]byte{0x02, 0xFE, 0xFF, 0xFF, 0xFF, 0x0F}, uint16(1), uint8(0)) // delta past uint32
	f.Add([]byte{0x03, 0x01}, uint16(1), uint8(0))                         // run of -1 below zero
	f.Add([]byte{0x04, 0x80}, uint16(2), uint8(0))                         // truncated varint
	f.Add([]byte{0x02, 0x80, 0x00}, uint16(1), uint8(0))                   // non-minimal varint
	f.Add([]byte{0x02, 0x02, 0x00}, uint16(1), uint8(0))                   // trailing byte
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, uint16(3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, nn uint16, ss uint8) {
		n, stride := int(nn%2048), int(ss%5)+1
		size := 0
		if n > 0 {
			size = (n-1)*stride + 1
		}
		got, want := make([]uint32, size), make([]uint32, size)
		errGot, errWant := decodeRLEColumn(data, got, stride, n), refDecodeRLEColumn(data, want, stride, n)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("n=%d stride=%d: decodeRLEColumn err %v, reference err %v", n, stride, errGot, errWant)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d stride=%d (err %v): decodeRLEColumn %v, reference %v", n, stride, errGot, got, want)
		}

		col := make([]uint32, len(data)/2*stride)
		v := uint32(int32(int8(nn >> 8))) // a start anywhere, wrapping below zero too
		for i := 0; i < len(data)/2; i++ {
			v += uint32(int32(int16(binary.LittleEndian.Uint16(data[2*i:]))) >> (ss % 16))
			col[i*stride] = v
		}
		m := len(data) / 2
		prefix := []byte{0xAA, 0xBB}
		enc := appendRLEColumn(slices.Clip(prefix), col, stride, m)
		ref := refAppendRLEColumn(slices.Clone(prefix), col, stride, m)
		if !bytes.Equal(enc, ref) {
			t.Fatalf("column %v (stride %d): appendRLEColumn % x, reference % x", col, stride, enc, ref)
		}
	})
}
