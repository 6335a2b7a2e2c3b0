package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
)

// refWriteFloats is the reference vector encoder the pooled writers are
// checked against: a fresh buffer sized up front, filled with PutUint64.
func refWriteFloats(w io.Writer, xs []float64) error {
	buf := make([]byte, 4+8*len(xs))
	binary.BigEndian.PutUint32(buf, uint32(len(xs)))
	for i, x := range xs {
		binary.BigEndian.PutUint64(buf[4+8*i:], math.Float64bits(x))
	}
	_, err := w.Write(buf)
	return err
}

// refWriteInts is refWriteFloats for int64 values.
func refWriteInts(w io.Writer, xs []int64) error {
	buf := make([]byte, 4+8*len(xs))
	binary.BigEndian.PutUint32(buf, uint32(len(xs)))
	for i, x := range xs {
		binary.BigEndian.PutUint64(buf[4+8*i:], uint64(x))
	}
	_, err := w.Write(buf)
	return err
}

// refReadVector is the reference vector decoder: binary.Read for the
// length, a fresh buffer for the payload.
func refReadVector(r io.Reader) ([]uint64, error) {
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
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(buf[8*i:])
	}
	return out, nil
}

// bufSize maps a fuzzed selector onto a bufio size in [16 B, 64 KiB].
func bufSize(sel uint16) int { return 16 + int(sel)%(64<<10-15) }

// sameErr reports whether two decode errors agree: both nil, the same
// io sentinel, or the same message.
func sameErr(a, b error) bool {
	switch {
	case a == nil || b == nil:
		return a == nil && b == nil
	case errors.Is(a, io.EOF) || errors.Is(b, io.EOF):
		return errors.Is(a, io.EOF) && errors.Is(b, io.EOF)
	case errors.Is(a, io.ErrUnexpectedEOF) || errors.Is(b, io.ErrUnexpectedEOF):
		return errors.Is(a, io.ErrUnexpectedEOF) && errors.Is(b, io.ErrUnexpectedEOF)
	}
	return a.Error() == b.Error()
}

// FuzzVectorCodecParity checks the pooled vector codec every ESTIMATE,
// ENHANCED, WINDOW, DECAY, COUNTS and SNAPSHOT reply runs against the
// reference encoder and decoder above, through bufio writers and readers
// of 16 B to 64 KiB: the writers emit the reference bytes, and the
// readers return the reference vectors — or the reference error — on
// arbitrary bytes and on every truncation the fuzzer picks.
func FuzzVectorCodecParity(f *testing.F) {
	var seed bytes.Buffer
	refWriteFloats(&seed, []float64{0.5, -1, math.Inf(1), math.NaN()})
	f.Add(seed.Bytes(), uint16(0), uint16(7))
	f.Add([]byte{0, 0, 0, 2, 1, 2, 3}, uint16(4096), uint16(3))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, uint16(100), uint16(1))
	f.Add(bytes.Repeat([]byte{0x3F}, 5000), uint16(65000), uint16(2500))
	f.Add([]byte{}, uint16(16), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, sel, cut uint16) {
		size := bufSize(sel)

		// Writers: the data read as 8-byte entries, float and int.
		xs := make([]float64, len(data)/8)
		ns := make([]int64, len(data)/8)
		for i := range xs {
			u := binary.BigEndian.Uint64(data[8*i:])
			xs[i], ns[i] = math.Float64frombits(u), int64(u)
		}
		var want, got bytes.Buffer
		refWriteFloats(&want, xs)
		refWriteInts(&want, ns)
		bw := bufio.NewWriterSize(&got, size)
		if err := writeFloats(bw, xs); err != nil {
			t.Fatal(err)
		}
		if err := writeInts(bw, ns); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("writers emit %d bytes that differ from the reference %d", got.Len(), want.Len())
		}

		// Readers: the raw data, and a truncation of the valid encoding.
		enc := want.Bytes()[:4+8*len(xs)]
		for _, in := range [][]byte{data, enc[:int(cut)%(len(enc)+1)]} {
			ref, rerr := refReadVector(bytes.NewReader(in))
			fl, ferr := readFloats(bufio.NewReaderSize(bytes.NewReader(in), size))
			it, ierr := readInts(bufio.NewReaderSize(bytes.NewReader(in), size))
			if !sameErr(ferr, rerr) || !sameErr(ierr, rerr) {
				t.Fatalf("errors on %d bytes: floats %v, ints %v, reference %v", len(in), ferr, ierr, rerr)
			}
			if rerr != nil {
				continue
			}
			if len(fl) != len(ref) || len(it) != len(ref) {
				t.Fatalf("lengths %d/%d, reference %d", len(fl), len(it), len(ref))
			}
			for i, u := range ref {
				if math.Float64bits(fl[i]) != u || uint64(it[i]) != u {
					t.Fatalf("entry %d: %x/%x, reference %x", i, math.Float64bits(fl[i]), uint64(it[i]), u)
				}
			}
		}
	})
}
