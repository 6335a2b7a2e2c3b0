package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
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
