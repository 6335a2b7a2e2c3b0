package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
)

// refAppendBatch is the reference batch encoder, written report by
// report with no staging: under v1 an optional SELECT route, then a 0x06
// BATCH of embedded 0x01/0x05 frames; under v2 a shape scan that sends a
// rectangular batch (the empty one included) as a CBATCH and a ragged
// one in the v1 grammar.
func refAppendBatch(dst []byte, query string, seq uint64, reps []est.Report, v2 bool) ([]byte, error) {
	if v2 {
		ndims, nvals, rect := 0, 0, true
		for i, rep := range reps {
			if i == 0 {
				ndims, nvals = len(rep.Dims), len(rep.Values)
			} else if len(rep.Dims) != ndims || len(rep.Values) != nvals {
				rect = false
				break
			}
		}
		if rect {
			return refAppendCBatchReports(dst, query, seq, reps, ndims, nvals)
		}
	}
	if len(reps) > maxBatch {
		return nil, errBatchTooLong
	}
	if query != "" {
		if len(query) > maxNameLen {
			return nil, errNameTooLong
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
			dst = appendReport(dst, rep.Dims, rep.Values)
		} else {
			dst = appendVecReport(dst, rep.Dims, rep.Values)
		}
	}
	return dst, nil
}

// refAppendCBatchReports marshals one CBATCH frame from row-shaped
// reports the caller has verified rectangular, gathering each dims
// column out of the reports before encoding it and streaming the
// values report by report.
func refAppendCBatchReports(dst []byte, query string, seq uint64, reps []est.Report, ndims, nvals int) ([]byte, error) {
	if len(query) > maxNameLen {
		return nil, errNameTooLong
	}
	if err := checkCBatchShape(len(reps), ndims, nvals); err != nil {
		return nil, err
	}
	dst = append(dst, frameCBatch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(query)))
	dst = append(dst, query...)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	for _, v := range []int{len(reps), ndims, nvals} {
		dst = binary.BigEndian.AppendUint32(dst, uint32(v))
	}
	col := make([]uint32, 0, len(reps))
	for c := 0; c < ndims; c++ {
		col = col[:0]
		for _, rep := range reps {
			col = append(col, rep.Dims[c])
		}
		off := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		dst = refAppendRLEColumn(dst, col, 1, len(reps))
		binary.BigEndian.PutUint32(dst[off:], uint32(len(dst)-off-4))
	}
	for _, rep := range reps {
		for _, v := range rep.Values {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst, nil
}

var (
	errBatchTooLong = errors.New("reference: batch exceeds limit")
	errNameTooLong  = errors.New("reference: route exceeds limit")
)

// fuzzBatchReports reads a report sequence out of data. Each report
// takes a shape byte — dims count in the low nibble, values count in the
// high one, both mod 5 — then two bytes per dim and two per value. With
// rect set every report takes the first report's shape, so the batch is
// rectangular; otherwise shapes vary as the bytes do. shift widens the
// dims so column deltas reach past the one- and two-byte varints.
func fuzzBatchReports(data []byte, rect bool, shift uint) []est.Report {
	var reps []est.Report
	nd, nv := -1, -1
	for len(data) > 0 && len(reps) < 512 {
		if !rect || nd < 0 {
			nd, nv = int(data[0]&0x0f)%5, int(data[0]>>4)%5
		}
		data = data[1:]
		rep := est.Report{Dims: make([]uint32, nd), Values: make([]float64, nv)}
		for i := range rep.Dims {
			if len(data) >= 2 {
				rep.Dims[i] = uint32(binary.LittleEndian.Uint16(data)) << shift
				data = data[2:]
			}
		}
		for i := range rep.Values {
			if len(data) >= 2 {
				u := uint64(binary.LittleEndian.Uint16(data))
				rep.Values[i] = math.Float64frombits(u<<48 | u<<8 | u>>8)
				data = data[2:]
			}
		}
		reps = append(reps, rep)
	}
	return reps
}

// FuzzBatchEncodeParity: a report sequence — rectangular, ragged or
// empty — fed to a BufferedClient one Add at a time must stage and
// encode to exactly the bytes CodecV1{}/CodecV2{}.AppendBatch write for
// the same reports under the same route and sequence number, and both
// must equal the reference per-report encoder's. Either all three
// encode or all three refuse (an over-long route).
func FuzzBatchEncodeParity(f *testing.F) {
	seed := func(reps []est.Report, route string, seq uint64, v2 bool, shape uint8) {
		var data []byte
		for _, rep := range reps {
			data = append(data, byte(len(rep.Dims))|byte(len(rep.Values))<<4)
			for _, d := range rep.Dims {
				data = binary.LittleEndian.AppendUint16(data, uint16(d))
			}
			for _, v := range rep.Values {
				data = binary.LittleEndian.AppendUint16(data, uint16(v*1000))
			}
		}
		f.Add(data, route, seq, v2, shape)
	}
	pairs := []est.Report{
		{Dims: []uint32{1, 5}, Values: []float64{0.5, 0.25}},
		{Dims: []uint32{2, 5}, Values: []float64{0.125, 0.75}},
		{Dims: []uint32{3, 5}, Values: []float64{1, 2}},
	}
	ragged := []est.Report{
		{Dims: []uint32{1}, Values: []float64{0.5}},
		{Dims: []uint32{2, 3}, Values: []float64{0.25, 0.5}},
		{Dims: []uint32{4}, Values: []float64{1, 2, 3}},
		{Values: []float64{1}},
	}
	for _, v2 := range []bool{false, true} {
		seed(pairs, "", 0, v2, 1)
		seed(pairs, "temps", 7, v2, 1|3<<1)
		seed(ragged, "", 0, v2, 0)
		seed(ragged, "pets", 1<<40, v2, 0)
		seed(nil, "", 0, v2, 1)
		seed(nil, "q", 3, v2, 0)
	}
	f.Add([]byte{0x22, 1, 2, 3, 4}, string(make([]byte, maxNameLen+1)), uint64(1), true, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, route string, seq uint64, v2 bool, shape uint8) {
		reps := fuzzBatchReports(data, shape&1 == 1, uint(shape>>1)%17)
		want, wantErr := refAppendBatch(nil, route, seq, reps, v2)

		var codec FrameCodec = CodecV1{}
		proto := ProtocolV1
		if v2 {
			codec, proto = CodecV2{}, ProtocolV2
		}
		prefix := []byte{0xAA, 0xBB}
		got, err := codec.AppendBatch(slices.Clip(prefix), route, seq, reps)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("v%d AppendBatch err %v, reference err %v", proto, err, wantErr)
		}
		if err == nil && (!bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want)) {
			t.Fatalf("v%d AppendBatch of %d reports: % x, reference % x", proto, len(reps), got, want)
		}

		b := NewBufferedClient(&Client{proto: proto}, WithBatchSize(maxBatch), WithQueryName(route))
		for _, rep := range reps {
			if err := b.Add(rep); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		pb := &pendingBatch{seq: seq}
		b.mu.Lock()
		err = b.encodePendingLocked(pb)
		b.mu.Unlock()
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("v%d BufferedClient encode err %v, reference err %v", proto, err, wantErr)
		}
		if err == nil && !bytes.Equal(*pb.enc, want) {
			t.Fatalf("v%d BufferedClient staged %d reports as % x, reference % x", proto, len(reps), *pb.enc, want)
		}
	})
}
