package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"github.com/hdr4me/hdr4me/internal/epoch"
	"github.com/hdr4me/hdr4me/internal/transport"
)

// Checkpoint file layout (big endian):
//
//	[8]byte  magic "HDR4CKPT"
//	uint32   format version (currently 2; version-1 files still decode)
//	uint64   payload length
//	payload  (see below)
//	uint32   CRC-32C (Castagnoli) of the payload
//
// Payload (version 2; version 1 omits the two ≥v2 sections):
//
//	byte     accountant present (0/1); when 1:
//	float64    total ε, float64 spent ε
//	byte       (≥v2) renewal present (0/1); when 1:
//	  uint32     horizon (epochs), uint64 epoch counter
//	  uint32     tail count; per entry: float64 ε, uint32 epochs left
//	uint32   query count; per query:
//	  QuerySpec   (the OPENQUERY wire codec, transport.EncodeQuerySpec)
//	  byte        lifecycle (0 = open, 1 = sealed)
//	  Snapshot    (the SNAPSHOT wire codec, transport.EncodeSnapshot)
//	  byte        (≥v2) epoch ring present (0/1); when 1:
//	    uint64      live epoch id
//	    uint32      frozen epoch count; per epoch: uint64 id, Snapshot
//
// The CRC guards the whole payload: a torn write, a bad disk or a
// hand-edited file is refused outright (ErrCorrupt) rather than half
// restored. Unknown versions are refused the same way, so a format bump
// can never be silently misparsed.
//
// Encode streams: the payload length comes from a size computation over
// the state (payloadLen), and the payload goes out through a buffered
// writer that computes the CRC on the way, so a checkpoint of any size
// costs one pooled 64 KiB buffer rather than an in-memory copy of the
// file.
const (
	magic   = "HDR4CKPT"
	version = 2

	// FileName is the checkpoint's name inside a state directory.
	FileName = "checkpoint.ckpt"

	// maxQueries bounds the query count a checkpoint may claim, so a
	// corrupt count field cannot force an absurd allocation before the
	// CRC is even checked.
	maxQueries = 1 << 16

	// maxEpochs bounds the frozen epochs one query may claim, and
	// maxTail the retired-charge entries — the same anti-absurdity
	// guards as maxQueries.
	maxEpochs = 1 << 12
	maxTail   = 1 << 16

	// maxPayload bounds the payload length field for the same reason.
	maxPayload = 1 << 30
)

// ErrCorrupt marks a checkpoint file that exists but cannot be trusted:
// bad magic, unknown version, truncation, or a CRC mismatch. Callers
// must treat it as "no usable checkpoint" and start fresh — never as a
// partial restore.
var ErrCorrupt = errors.New("persist: corrupt checkpoint")

// castagnoli is the CRC-32C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes state to w in the versioned, CRC-guarded layout,
// streaming the payload (see the layout notes above). On an error w may
// hold a partial checkpoint, which Save never renames into place.
func Encode(w io.Writer, state State) error {
	size, err := payloadLen(state)
	if err != nil {
		return err
	}
	var hdr [len(magic) + 4 + 8]byte
	copy(hdr[:], magic)
	binary.BigEndian.PutUint32(hdr[len(magic):], version)
	binary.BigEndian.PutUint64(hdr[len(magic)+4:], uint64(size))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	cw := &crcWriter{w: w}
	bw := writerPool.Get().(*bufio.Writer)
	defer writerPool.Put(bw)
	bw.Reset(cw)
	defer bw.Reset(nil)
	if err := encodePayload(bw, state); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if cw.n != size {
		// A header announcing the wrong length would make the file
		// unreadable: refuse it rather than let it replace a good one.
		return fmt.Errorf("persist: encoded a %d-byte payload, sized it at %d", cw.n, size)
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], cw.crc)
	_, err = w.Write(crc[:])
	return err
}

// writerPool recycles the payload stream's write buffers. Each holds
// 64 KiB, so a wide checkpoint reaches the file in few write calls.
var writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// crcWriter passes the payload on to w, keeping its CRC-32C and length.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.n += n
	return n, err
}

// payloadLen is the length of state's payload — the bytes encodePayload
// writes — checking the same limits it does.
func payloadLen(state State) (int, error) {
	n := 1 // accountant flag
	if acct := state.Accountant; acct != nil {
		n += 16 + 1 // ε ledger, renewal flag
		if ren := acct.Renewal; ren != nil {
			if len(ren.Tail) > maxTail {
				return 0, fmt.Errorf("persist: %d retired charges exceed the checkpoint limit %d", len(ren.Tail), maxTail)
			}
			n += 16 + 12*len(ren.Tail)
		}
	}
	if len(state.Queries) > maxQueries {
		return 0, fmt.Errorf("persist: %d queries exceed the checkpoint limit %d", len(state.Queries), maxQueries)
	}
	n += 4 // query count
	for _, q := range state.Queries {
		n += transport.QuerySpecLen(q.Spec) + 1 + transport.SnapshotLen(q.Snap) + 1 // spec, lifecycle, snapshot, epoch flag
		if ep := q.Epochs; ep != nil {
			if len(ep.Entries) > maxEpochs {
				return 0, fmt.Errorf("persist: query %q: %d frozen epochs exceed the checkpoint limit %d",
					q.Spec.Name, len(ep.Entries), maxEpochs)
			}
			n += 12 // live epoch id, frozen epoch count
			for _, e := range ep.Entries {
				n += 8 + transport.SnapshotLen(e.Snap)
			}
		}
	}
	return n, nil
}

// encodePayload writes state's payload to w. Fixed-width fields are
// built in w's own buffer (AvailableBuffer), so none escapes to the
// heap; w's first error sticks and surfaces at the caller's Flush.
func encodePayload(w *bufio.Writer, state State) error {
	u32 := func(v uint32) { w.Write(binary.BigEndian.AppendUint32(w.AvailableBuffer(), v)) }
	u64 := func(v uint64) { w.Write(binary.BigEndian.AppendUint64(w.AvailableBuffer(), v)) }
	if acct := state.Accountant; acct != nil {
		w.WriteByte(1)
		u64(math.Float64bits(acct.Total))
		u64(math.Float64bits(acct.Spent))
		if ren := acct.Renewal; ren != nil {
			w.WriteByte(1)
			u32(uint32(ren.Horizon))
			u64(ren.Epoch)
			u32(uint32(len(ren.Tail)))
			for _, tc := range ren.Tail {
				u64(math.Float64bits(tc.Eps))
				u32(uint32(tc.Left))
			}
		} else {
			w.WriteByte(0)
		}
	} else {
		w.WriteByte(0)
	}
	u32(uint32(len(state.Queries)))
	for _, q := range state.Queries {
		if err := transport.EncodeQuerySpec(w, q.Spec); err != nil {
			return err
		}
		var sealed byte
		if q.Sealed {
			sealed = 1
		}
		w.WriteByte(sealed)
		if err := transport.EncodeSnapshot(w, q.Snap); err != nil {
			return err
		}
		if ep := q.Epochs; ep != nil {
			w.WriteByte(1)
			u64(ep.Cur)
			u32(uint32(len(ep.Entries)))
			for _, e := range ep.Entries {
				u64(e.ID)
				if err := transport.EncodeSnapshot(w, e.Snap); err != nil {
					return err
				}
			}
		} else {
			w.WriteByte(0)
		}
	}
	return nil
}

// Decode parses a checkpoint written by Encode. Every trust failure —
// bad magic, unknown version, truncation, CRC mismatch, hostile length
// fields — comes back wrapping ErrCorrupt.
func Decode(r io.Reader) (State, error) {
	var state State
	hdr := make([]byte, len(magic)+4+8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return state, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return state, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:len(magic)])
	}
	v := binary.BigEndian.Uint32(hdr[len(magic):])
	if v < 1 || v > version {
		return state, fmt.Errorf("%w: unsupported format version %d (want 1..%d)", ErrCorrupt, v, version)
	}
	plen := binary.BigEndian.Uint64(hdr[len(magic)+4:])
	if plen > maxPayload {
		return state, fmt.Errorf("%w: payload length %d exceeds limit", ErrCorrupt, plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return state, fmt.Errorf("%w: short payload: %v", ErrCorrupt, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return state, fmt.Errorf("%w: missing checksum: %v", ErrCorrupt, err)
	}
	want := binary.BigEndian.Uint32(crc[:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return state, fmt.Errorf("%w: CRC mismatch (file says %08x, payload hashes to %08x)", ErrCorrupt, want, got)
	}
	if err := decodePayload(bytes.NewReader(payload), &state, v); err != nil {
		return State{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return state, nil
}

func decodePayload(r *bytes.Reader, state *State, v uint32) error {
	acct, err := r.ReadByte()
	if err != nil {
		return err
	}
	if acct > 1 {
		return fmt.Errorf("accountant flag %d is not 0/1", acct)
	}
	if acct == 1 {
		var b [16]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return err
		}
		state.Accountant = &AccountantState{
			Total: math.Float64frombits(binary.BigEndian.Uint64(b[:8])),
			Spent: math.Float64frombits(binary.BigEndian.Uint64(b[8:])),
		}
		if v >= 2 {
			ren, err := r.ReadByte()
			if err != nil {
				return err
			}
			if ren > 1 {
				return fmt.Errorf("renewal flag %d is not 0/1", ren)
			}
			if ren == 1 {
				var rb [16]byte
				if _, err := io.ReadFull(r, rb[:]); err != nil {
					return err
				}
				rs := &RenewalState{
					Horizon: int(binary.BigEndian.Uint32(rb[:4])),
					Epoch:   binary.BigEndian.Uint64(rb[4:12]),
				}
				cnt := binary.BigEndian.Uint32(rb[12:])
				if cnt > maxTail {
					return fmt.Errorf("%d retired charges exceed the checkpoint limit %d", cnt, maxTail)
				}
				for i := uint32(0); i < cnt; i++ {
					var tb [12]byte
					if _, err := io.ReadFull(r, tb[:]); err != nil {
						return err
					}
					rs.Tail = append(rs.Tail, TailCharge{
						Eps:  math.Float64frombits(binary.BigEndian.Uint64(tb[:8])),
						Left: int(binary.BigEndian.Uint32(tb[8:])),
					})
				}
				state.Accountant.Renewal = rs
			}
		}
	}
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return err
	}
	cnt := binary.BigEndian.Uint32(n[:])
	if cnt > maxQueries {
		return fmt.Errorf("%d queries exceed the checkpoint limit %d", cnt, maxQueries)
	}
	for i := uint32(0); i < cnt; i++ {
		var q QueryRecord
		if q.Spec, err = transport.DecodeQuerySpec(r); err != nil {
			return err
		}
		sealed, err := r.ReadByte()
		if err != nil {
			return err
		}
		if sealed > 1 {
			return fmt.Errorf("query %q: lifecycle byte %d is not 0/1", q.Spec.Name, sealed)
		}
		q.Sealed = sealed == 1
		if q.Snap, err = transport.DecodeSnapshot(r); err != nil {
			return err
		}
		if v >= 2 {
			hasEpochs, err := r.ReadByte()
			if err != nil {
				return err
			}
			if hasEpochs > 1 {
				return fmt.Errorf("query %q: epoch flag %d is not 0/1", q.Spec.Name, hasEpochs)
			}
			if hasEpochs == 1 {
				var eb [12]byte
				if _, err := io.ReadFull(r, eb[:]); err != nil {
					return err
				}
				ep := &EpochState{Cur: binary.BigEndian.Uint64(eb[:8])}
				ecnt := binary.BigEndian.Uint32(eb[8:])
				if ecnt > maxEpochs {
					return fmt.Errorf("query %q: %d frozen epochs exceed the checkpoint limit %d", q.Spec.Name, ecnt, maxEpochs)
				}
				for j := uint32(0); j < ecnt; j++ {
					var id [8]byte
					if _, err := io.ReadFull(r, id[:]); err != nil {
						return err
					}
					snap, err := transport.DecodeSnapshot(r)
					if err != nil {
						return err
					}
					ep.Entries = append(ep.Entries, epoch.Entry{ID: binary.BigEndian.Uint64(id[:]), Snap: snap})
				}
				q.Epochs = ep
			}
		}
		state.Queries = append(state.Queries, q)
	}
	if r.Len() != 0 {
		return fmt.Errorf("%d trailing bytes after last query", r.Len())
	}
	return nil
}

// Save writes state atomically into dir/FileName: the bytes land in a
// temp file in the same directory, are fsynced, and replace the previous
// checkpoint with a single rename — a crash mid-write leaves the old
// checkpoint intact, never a torn file. The directory is created if
// missing.
func Save(dir string, state State) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, FileName+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := Encode(tmp, state); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	final := filepath.Join(dir, FileName)
	if err := os.Rename(tmp.Name(), final); err != nil {
		return err
	}
	// fsync the directory so the rename itself survives a power loss.
	// Platforms whose directory handles reject Sync (it is optional in
	// POSIX) still got the atomic rename, so ignore that error.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Load reads dir/FileName. A missing file returns fs.ErrNotExist
// (errors.Is(err, os.ErrNotExist)) — the fresh-start signal — while an
// unreadable or untrustworthy file returns an error wrapping ErrCorrupt.
func Load(dir string) (State, error) {
	f, err := os.Open(filepath.Join(dir, FileName))
	if err != nil {
		return State{}, err
	}
	defer f.Close()
	state, err := Decode(f)
	if err != nil {
		return State{}, fmt.Errorf("%s: %w", f.Name(), err)
	}
	return state, nil
}
