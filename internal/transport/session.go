package transport

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"
)

// sessionTTLDefault is how long a detached replay session (its client
// disconnected, not yet resumed) is retained before the lazy sweep drops
// it. Override per server with Server.SessionTTL.
const sessionTTLDefault = 2 * time.Minute

// ackRingSize bounds how many recent per-sequence accepted counts a
// session remembers. A duplicate batch older than the ring is still
// detected (seq <= lastSeq) and acked, just with an accepted count of
// zero — the client's accounting is reconciled by the HELLO reply's
// cumulative total anyway, so the ring only improves per-batch fidelity.
const ackRingSize = 64

// ackRec is one remembered batch outcome: the sequence number and how
// many of its reports the estimator accepted.
type ackRec struct {
	seq      uint64
	accepted uint32
}

// Sequence classes for one incoming sequenced batch.
const (
	seqApply = iota // seq == lastSeq+1: the next batch, apply it
	seqDup          // seq <= lastSeq: already applied, ack from the record
	seqGap          // seq > lastSeq+1: an earlier batch was shed, NACK retryable
)

// connSession is the server half of one reconnecting client's
// exactly-once contract: the session token, the highest batch sequence
// number durably applied, and the cumulative accepted-report count the
// HELLO reply reconciles client accounting with. Exactly one connection
// owns a session at a time — a resume displaces (and closes) the
// previous owner, and a displaced connection's in-flight batch aborts at
// commit instead of racing the successor's replay.
type connSession struct {
	token uint64

	mu         sync.Mutex
	conn       net.Conn // owning connection; nil while detached
	lastSeq    uint64   // highest batch sequence applied (sheds never advance it)
	accepted   uint64   // cumulative reports accepted across the session
	acks       [ackRingSize]ackRec
	lastActive time.Time // detach time, for the TTL sweep
}

// state snapshots the fields a HELLO reply carries.
func (ss *connSession) state() helloReply {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return helloReply{Token: ss.token, LastSeq: ss.lastSeq, Accepted: ss.accepted}
}

// seqClass classifies seq against the session's applied prefix. Only the
// owning connection sends batches, so a seqApply answer can only be
// invalidated by a takeover — which commit re-checks under the same lock.
func (ss *connSession) seqClass(seq uint64) int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	switch {
	case seq == ss.lastSeq+1:
		return seqApply
	case seq <= ss.lastSeq:
		return seqDup
	default:
		return seqGap
	}
}

// dupAck returns the recorded accepted count for an already-applied
// sequence, or zero when the record has rotated out of the ring.
func (ss *connSession) dupAck(seq uint64) uint32 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if rec := ss.acks[seq%ackRingSize]; rec.seq == seq {
		return rec.accepted
	}
	return 0
}

// commit atomically applies one fully decoded sequenced batch — report
// slices for 0x06, columns for 0x13, behind apply: under the session
// lock it re-checks that conn still owns the session and that seq is
// still the next in line, then runs apply exactly once and advances
// lastSeq. Because decode happened first, a connection dying mid-batch
// applies nothing — there is no partially applied batch for a replay to
// double-count. A non-nil error means the connection lost the session
// to a takeover and must abort without replying.
func (ss *connSession) commit(conn net.Conn, seq uint64, apply func() (int, error)) (status byte, accepted uint32, err error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.conn != conn {
		return 0, 0, fmt.Errorf("transport: session %#x taken over mid-batch: %w", ss.token, net.ErrClosed)
	}
	switch {
	case seq == ss.lastSeq+1:
		n, _ := apply()
		ss.lastSeq = seq
		ss.accepted += uint64(n)
		ss.acks[seq%ackRingSize] = ackRec{seq: seq, accepted: uint32(n)}
		return ackOK, uint32(n), nil
	case seq <= ss.lastSeq:
		if rec := ss.acks[seq%ackRingSize]; rec.seq == seq {
			return ackOK, rec.accepted, nil
		}
		return ackOK, 0, nil
	default:
		return ackRetry, 0, nil
	}
}

// sessionTable maps live session tokens to their state. Sessions are
// swept lazily on HELLO traffic: a detached session older than the TTL
// is dropped, so an unresumed crash leaks nothing permanent.
type sessionTable struct {
	mu sync.Mutex
	m  map[uint64]*connSession
}

// open mints a fresh session owned by conn under a
// cryptographically random nonzero token.
func (t *sessionTable) open(conn net.Conn) (*connSession, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[uint64]*connSession)
	}
	for {
		token, err := newSessionToken()
		if err != nil {
			return nil, err
		}
		if _, dup := t.m[token]; dup {
			continue
		}
		ss := &connSession{token: token, conn: conn}
		t.m[token] = ss
		return ss, nil
	}
}

// resume re-attaches conn to the token's session, returning the
// connection it displaced (nil when the session was detached). ok is
// false for unknown or swept tokens.
func (t *sessionTable) resume(token uint64, conn net.Conn) (ss *connSession, displaced net.Conn, ok bool) {
	t.mu.Lock()
	ss = t.m[token]
	t.mu.Unlock()
	if ss == nil {
		return nil, nil, false
	}
	ss.mu.Lock()
	displaced = ss.conn
	ss.conn = conn
	ss.mu.Unlock()
	return ss, displaced, true
}

// detach releases conn's ownership of the session (if it still holds
// it) and timestamps it for the TTL sweep.
func (t *sessionTable) detach(ss *connSession, conn net.Conn) {
	ss.mu.Lock()
	if ss.conn == conn {
		ss.conn = nil
		ss.lastActive = time.Now()
	}
	ss.mu.Unlock()
}

// sweep drops detached sessions idle for longer than ttl.
func (t *sessionTable) sweep(ttl time.Duration) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for token, ss := range t.m {
		ss.mu.Lock()
		stale := ss.conn == nil && !ss.lastActive.IsZero() && now.Sub(ss.lastActive) > ttl
		ss.mu.Unlock()
		if stale {
			delete(t.m, token)
		}
	}
}

// newSessionToken draws a nonzero random token (zero is the
// open-a-new-session sentinel on the wire). Tokens live in the low 48
// bits of the HELLO token field — the high 16 carry the versioned-HELLO
// flags and protocol version (see cbatch.go) — so 48 bits is the full
// token space, still far beyond collision range for the session counts
// one collector holds.
func newSessionToken() (uint64, error) {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			return 0, err
		}
		if token := binary.BigEndian.Uint64(b[:]) & helloTokenMask; token != 0 {
			return token, nil
		}
	}
}
