package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
)

// reportsEqual compares two reports bit-exactly (NaN payloads included),
// treating nil and empty slices as equal.
func reportsEqual(a, b est.Report) bool {
	if len(a.Dims) != len(b.Dims) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Dims {
		if a.Dims[i] != b.Dims[i] {
			return false
		}
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// frameBody strips the type byte a Write* helper prepends.
func frameBody(t *testing.T, buf *bytes.Buffer, want byte) []byte {
	t.Helper()
	ft, err := readFrameType(buf)
	if err != nil || ft != want {
		t.Fatalf("frame type 0x%02x, err %v; want 0x%02x", ft, err, want)
	}
	return buf.Bytes()
}

// FuzzRoundTripQuerySpec: any bytes the query-spec decoder accepts must
// re-encode to a frame that decodes to the same spec; hostile length
// fields must be rejected cleanly.
func FuzzRoundTripQuerySpec(f *testing.F) {
	var seed bytes.Buffer
	WriteOpenQuery(&seed, est.QuerySpec{
		Name: "pets", Kind: est.KindFreq, Mech: "squarewave",
		Eps: 0.4, Cards: []int{3, 4, 5}, M: 2,
	})
	f.Add(seed.Bytes()[1:])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 1, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := readQuerySpecBody(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteOpenQuery(&buf, spec); err != nil {
			t.Fatalf("re-encode decoded spec: %v", err)
		}
		got, err := readQuerySpecBody(bytes.NewReader(frameBody(t, &buf, frameOpenQuery)))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if got.Name != spec.Name || got.Kind != spec.Kind || got.Mech != spec.Mech ||
			math.Float64bits(got.Eps) != math.Float64bits(spec.Eps) ||
			got.D != spec.D || got.M != spec.M || len(got.Cards) != len(spec.Cards) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, spec)
		}
		for i := range spec.Cards {
			if got.Cards[i] != spec.Cards[i] {
				t.Fatalf("cards mismatch: %v vs %v", got.Cards, spec.Cards)
			}
		}
	})
}

// FuzzRoundTripReport: any bytes the pair-report decoder accepts must
// re-encode to a frame that decodes to the same report; hostile length
// fields must be rejected cleanly.
func FuzzRoundTripReport(f *testing.F) {
	var seed bytes.Buffer
	WriteReport(&seed, est.Report{Dims: []uint32{0, 3, 17}, Values: []float64{-0.5, math.Pi, 1e-300}})
	f.Add(seed.Bytes()[1:])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := readReportBody(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteReport(&buf, rep); err != nil {
			t.Fatalf("re-encode decoded report: %v", err)
		}
		got, err := readReportBody(bytes.NewReader(frameBody(t, &buf, frameReport)))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reportsEqual(rep, got) {
			t.Fatalf("round trip mismatch: %+v vs %+v", rep, got)
		}
	})
}

// FuzzRoundTripVecReport: same contract for the independent-length 0x05
// frame.
func FuzzRoundTripVecReport(f *testing.F) {
	var seed bytes.Buffer
	WriteVecReport(&seed, est.Report{Dims: []uint32{1, 4}, Values: []float64{1, -1, 0.5, -0.5, 0}})
	f.Add(seed.Bytes()[1:])
	var wt bytes.Buffer
	WriteVecReport(&wt, est.Report{Values: []float64{0.25, -0.25}})
	f.Add(wt.Bytes()[1:])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := readVecReportBody(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteVecReport(&buf, rep); err != nil {
			t.Fatalf("re-encode decoded report: %v", err)
		}
		got, err := readVecReportBody(bytes.NewReader(frameBody(t, &buf, frameVecReport)))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reportsEqual(rep, got) {
			t.Fatalf("round trip mismatch: %+v vs %+v", rep, got)
		}
	})
}

// refDecodeBatch decodes an unsequenced batch body (count field onward)
// through the reference decoder, CodecV1{}.DecodeBatch, returning the
// reports and the bytes left unread after the frame.
func refDecodeBatch(body []byte) (reps []est.Report, rest []byte, err error) {
	br := bufio.NewReader(io.MultiReader(bytes.NewReader([]byte{frameBatch}), bytes.NewReader(body)))
	_, _, reps, err = CodecV1{}.DecodeBatch(br, false)
	rest, _ = io.ReadAll(br)
	return reps, rest, err
}

// servedDecodeBatch decodes an unsequenced batch body the way the
// server does — count bound, then readBatchBuffered — and returns deep
// copies of every report the decoder handed to the lane, failure or not.
func servedDecodeBatch(br *bufio.Reader) ([]est.Report, error) {
	sc := &decodeScratch{}
	cnt, err := sc.readUint32(br)
	if err != nil {
		return nil, err
	}
	if cnt > maxBatch {
		return nil, fmt.Errorf("transport: batch of %d reports exceeds limit %d", cnt, maxBatch)
	}
	var got []est.Report
	n, err := readBatchBuffered(br, sc, cnt, func(reps []est.Report) (int, error) {
		got = append(got, cloneReports(reps)...)
		return len(reps), nil
	})
	if int(n) != len(got) {
		return got, fmt.Errorf("accepted %d but delivered %d reports", n, len(got))
	}
	return got, err
}

// cloneReports deep-copies reports out of a decode scratch.
func cloneReports(reps []est.Report) []est.Report {
	out := make([]est.Report, len(reps))
	for i, rep := range reps {
		out[i] = est.Report{
			Dims:   append([]uint32(nil), rep.Dims...),
			Values: append([]float64(nil), rep.Values...),
		}
	}
	return out
}

// sameReports fails t unless got and want agree report by report.
func sameReports(t *testing.T, label string, got, want []est.Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: decoded %d reports, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if !reportsEqual(got[i], want[i]) {
			t.Fatalf("%s: report %d mismatch: got %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}

// FuzzRoundTripBatch: a batch body the reference decoder accepts must
// survive encode-decode through CodecV1, report by report.
func FuzzRoundTripBatch(f *testing.F) {
	seed, err := CodecV1{}.AppendBatch(nil, "", 0, []est.Report{
		{Dims: []uint32{0}, Values: []float64{0.5}},
		{Values: []float64{1, -1}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed[1:])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})       // hostile count
	f.Add([]byte{0, 0, 0, 1, 0x07})             // batch embedding a non-report frame
	f.Add([]byte{0, 0, 0, 2, 0x01, 0, 0, 0, 0}) // truncated second report
	f.Fuzz(func(t *testing.T, data []byte) {
		reps, _, err := refDecodeBatch(data)
		if err != nil {
			return
		}
		frame, err := CodecV1{}.AppendBatch(nil, "", 0, reps)
		if err != nil {
			t.Fatalf("re-encode decoded batch: %v", err)
		}
		got, _, err := refDecodeBatch(frame[1:])
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		sameReports(t, "round trip", got, reps)
	})
}

// FuzzBatchDecodeParity: the served 0x06 decoder must agree with the
// reference decoder (CodecV1{}.DecodeBatch) on every input. Over
// read buffers of 16 and 64 bytes — at 16, frames wider than the window
// take the readReportPairs/readVecReportRest fallback — the chunked
// unsequenced path must deliver the same reports and leave the same
// bytes unread. On inputs the reference rejects it must fail too, and
// the prefix it delivered before failing must be exactly the reference
// decode of the same bytes with the count field set to that prefix's
// length. The sequenced full-decode path must accept exactly what the
// reference accepts, with the same reports.
func FuzzBatchDecodeParity(f *testing.F) {
	seed, err := CodecV1{}.AppendBatch(nil, "", 0, []est.Report{
		{Dims: []uint32{0}, Values: []float64{0.5}},
		{Values: []float64{1, -1}},
		{Dims: []uint32{1, 3}, Values: []float64{0.25, -0.25}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed[1:])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})       // hostile count
	f.Add([]byte{0, 0, 0, 1, 0x07})             // batch embedding a non-report frame
	f.Add([]byte{0, 0, 0, 2, 0x01, 0, 0, 0, 0}) // truncated second report
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantRest, wantErr := refDecodeBatch(data)
		for _, size := range []int{16, 64} {
			label := fmt.Sprintf("window %d", size)
			br := bufio.NewReaderSize(bytes.NewReader(data), size)
			got, gotErr := servedDecodeBatch(br)
			if wantErr == nil {
				if gotErr != nil {
					t.Fatalf("%s: served decoder rejects what the reference accepts: %v", label, gotErr)
				}
				sameReports(t, label, got, want)
				if rest, _ := io.ReadAll(br); !bytes.Equal(rest, wantRest) {
					t.Fatalf("%s: served decoder left %d bytes unread, reference %d", label, len(rest), len(wantRest))
				}
				continue
			}
			if gotErr == nil {
				t.Fatalf("%s: served decoder accepts what the reference rejects (%v)", label, wantErr)
			}
			if len(data) < 4 {
				if len(got) != 0 {
					t.Fatalf("%s: %d reports delivered without a count field", label, len(got))
				}
				continue
			}
			prefix := append([]byte(nil), data...)
			binary.BigEndian.PutUint32(prefix, uint32(len(got)))
			ref, _, err := refDecodeBatch(prefix)
			if err != nil {
				t.Fatalf("%s: reference rejects the %d-report prefix the served decoder delivered: %v", label, len(got), err)
			}
			sameReports(t, label+" prefix", got, ref)
		}

		// The sequenced path decodes the same body in full.
		br := bufio.NewReaderSize(bytes.NewReader(data), 16)
		sc := &decodeScratch{}
		cnt, err := sc.readUint32(br)
		if err != nil || cnt > maxBatch {
			if wantErr == nil {
				t.Fatalf("reference accepted a batch with no valid count")
			}
			return
		}
		seq, seqErr := readSeqBatch(br, sc, cnt)
		if (seqErr == nil) != (wantErr == nil) {
			t.Fatalf("sequenced decoder err %v, reference err %v", seqErr, wantErr)
		}
		if seqErr == nil {
			sameReports(t, "sequenced", seq, want)
		}
	})
}

// FuzzRoundTripSnapshot: the snapshot codec must be lossless on anything
// it decodes and reject hostile kind/length fields without crashing.
func FuzzRoundTripSnapshot(f *testing.F) {
	var seed bytes.Buffer
	writeSnapshotBody(&seed, est.Snapshot{
		Kind: "mean", Dims: 3,
		Sums: []float64{1, -2, 0.5}, Counts: []int64{4, 4, 4},
	})
	f.Add(seed.Bytes())
	var fr bytes.Buffer
	writeSnapshotBody(&fr, est.Snapshot{
		Kind: "freq", Dims: 2, Cards: []int{2, 3},
		Sums: []float64{1, 2, 3, 4, 5}, Counts: []int64{7, 7},
	})
	f.Add(fr.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // hostile kind length
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := readSnapshotBody(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeSnapshotBody(&buf, snap); err != nil {
			t.Fatalf("re-encode decoded snapshot: %v", err)
		}
		got, err := readSnapshotBody(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if got.Kind != snap.Kind || got.Dims != snap.Dims ||
			len(got.Cards) != len(snap.Cards) || len(got.Sums) != len(snap.Sums) ||
			len(got.Counts) != len(snap.Counts) {
			t.Fatalf("round trip shape mismatch: %+v vs %+v", got, snap)
		}
		for i := range snap.Cards {
			if got.Cards[i] != snap.Cards[i] {
				t.Fatalf("cards mismatch at %d", i)
			}
		}
		for i := range snap.Sums {
			if math.Float64bits(got.Sums[i]) != math.Float64bits(snap.Sums[i]) {
				t.Fatalf("sums mismatch at %d", i)
			}
		}
		for i := range snap.Counts {
			if got.Counts[i] != snap.Counts[i] {
				t.Fatalf("counts mismatch at %d", i)
			}
		}
	})
}

// FuzzRoundTripHello covers both halves of the session handshake codec
// in both wire shapes: the fixed 9-byte legacy HELLO request and its
// 24-byte reply body, plus the versioned request (flags + protocol
// version + 48-bit token packed into the same field) and its 25-byte
// reply, must survive decode→encode→decode bit-exactly for any token
// and progress values the fuzzer invents.
func FuzzRoundTripHello(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(0xdeadbeef), uint64(1), uint64(7))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, token, lastSeq, accepted uint64) {
		var req bytes.Buffer
		if err := writeHello(&req, token); err != nil {
			t.Fatalf("writeHello: %v", err)
		}
		ft, err := readFrameType(&req)
		if err != nil || ft != frameHello {
			t.Fatalf("request frame type 0x%02x, err %v; want frameHello", ft, err)
		}
		var tok [8]byte
		if _, err := io.ReadFull(&req, tok[:]); err != nil {
			t.Fatalf("request token: %v", err)
		}
		if got := binary.BigEndian.Uint64(tok[:]); got != token {
			t.Fatalf("request token %#x; want %#x", got, token)
		}

		var reply bytes.Buffer
		h := helloReply{Token: token, LastSeq: lastSeq, Accepted: accepted}
		if err := writeHelloReplyBody(&reply, h); err != nil {
			t.Fatalf("writeHelloReplyBody: %v", err)
		}
		got, err := readHelloReplyBody(&reply)
		if err != nil {
			t.Fatalf("readHelloReplyBody: %v", err)
		}
		if got != h {
			t.Fatalf("reply round trip: %+v vs %+v", got, h)
		}

		// Versioned request: the flag/version/token packing must be
		// lossless for any 48-bit token and 8-bit version.
		ver := int(lastSeq%255) + 1
		noSession := accepted%2 == 1
		var vreq bytes.Buffer
		if err := writeHelloVersioned(&vreq, token, ver, noSession); err != nil {
			t.Fatalf("writeHelloVersioned: %v", err)
		}
		if ft, err := readFrameType(&vreq); err != nil || ft != frameHello {
			t.Fatalf("versioned frame type 0x%02x, err %v; want frameHello", ft, err)
		}
		if _, err := io.ReadFull(&vreq, tok[:]); err != nil {
			t.Fatalf("versioned token field: %v", err)
		}
		raw := binary.BigEndian.Uint64(tok[:])
		if raw&helloFlagVersioned == 0 {
			t.Fatal("versioned flag lost")
		}
		if gotNS := raw&helloFlagNoSession != 0; gotNS != noSession {
			t.Fatalf("noSession flag %v; want %v", gotNS, noSession)
		}
		if gotVer := int(raw & helloVersionMask >> helloVersionShift); gotVer != ver {
			t.Fatalf("version %d; want %d", gotVer, ver)
		}
		if gotTok := raw & helloTokenMask; gotTok != token&helloTokenMask {
			t.Fatalf("token bits %#x; want %#x", gotTok, token&helloTokenMask)
		}

		// Versioned 25-byte reply body.
		var vreply bytes.Buffer
		if err := writeHelloReplyBodyV(&vreply, h, ver); err != nil {
			t.Fatalf("writeHelloReplyBodyV: %v", err)
		}
		vh, gotVer, err := readHelloReplyBodyV(&vreply)
		if err != nil {
			t.Fatalf("readHelloReplyBodyV: %v", err)
		}
		if vh != h || gotVer != ver%256 {
			t.Fatalf("versioned reply round trip: (%+v, %d) vs (%+v, %d)", vh, gotVer, h, ver)
		}
	})
}

// FuzzSeqBatchDecodeParity: a sequenced batch encoded by
// CodecV1{}.AppendBatch must decode through the served full-batch path
// (readSeqBatch) to bit-identical reports, for any sequence number and
// report content. Sequence 0 is skipped: sessions never send it, and
// AppendBatch omits the sequence field for it.
func FuzzSeqBatchDecodeParity(f *testing.F) {
	f.Add(uint64(1), uint32(3), 0.25, -0.75)
	f.Add(^uint64(0), uint32(0), math.Inf(1), math.NaN())
	f.Fuzz(func(t *testing.T, seq uint64, dim uint32, v1, v2 float64) {
		if seq == 0 {
			t.Skip("sequence 0 is never sent in a session")
		}
		reps := []est.Report{
			{Dims: []uint32{dim}, Values: []float64{v1}},
			{Dims: []uint32{dim / 2, dim}, Values: []float64{v2, v1}},
		}
		frame, err := CodecV1{}.AppendBatch(nil, "", seq, reps)
		if err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
		if frame[0] != frameBatch {
			t.Fatalf("frame type 0x%02x; want frameBatch", frame[0])
		}
		if len(frame) < 13 {
			t.Fatalf("frame of %d bytes has no seq+count header", len(frame))
		}
		if got := binary.BigEndian.Uint64(frame[1:9]); got != seq {
			t.Fatalf("sequence %d; want %d", got, seq)
		}
		cnt := binary.BigEndian.Uint32(frame[9:13])
		if int(cnt) != len(reps) {
			t.Fatalf("count %d; want %d", cnt, len(reps))
		}
		sc := &decodeScratch{}
		got, err := readSeqBatch(bufio.NewReader(bytes.NewReader(frame[13:])), sc, cnt)
		if err != nil {
			t.Fatalf("readSeqBatch: %v", err)
		}
		sameReports(t, "sequenced", got, reps)
	})
}
