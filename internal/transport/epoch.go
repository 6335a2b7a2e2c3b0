package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/hdr4me/hdr4me/internal/est"
)

// epochEstimator is the continual-collection surface the transport needs
// from a serving estimator. It is a structural mirror of epoch.Ring's
// methods — declared here so transport depends only on est, exactly as
// the rest of the wire layer does.
type epochEstimator interface {
	Current() uint64
	AddLate(id uint64, reps []est.Report) (int, error)
	WindowEstimate(w int) ([]float64, error)
	DecayedEstimate(gamma float64) ([]float64, error)
	Rotate() uint64
}

// ringOf resolves q's estimator as an epoch ring; nil when q is nil, the
// query is not open (for mutating exchanges), or the estimator is a
// one-shot aggregator.
func ringOf(q *est.Query, mutating bool) epochEstimator {
	if q == nil {
		return nil
	}
	if mutating && q.State() != est.StateOpen {
		return nil
	}
	ring, _ := q.Estimator().(epochEstimator)
	return ring
}

// serveEpoch handles one EPOCH (0x0C) frame: a uint64 epoch id followed
// by one embedded ingest frame whose reports land in that epoch through
// the ring's lateness policy. The reply mirrors the wrapped frame's —
// one ack byte for a report, status + accepted count for a batch — so a
// rejection (no query, one-shot estimator, sealed query, policy refusal)
// never desyncs the connection: the body is always consumed first.
func (s *Server) serveEpoch(br *bufio.Reader, bw *bufio.Writer, sc *decodeScratch, q *est.Query) error {
	var eb [8]byte
	if _, err := io.ReadFull(br, eb[:]); err != nil {
		return err
	}
	id := binary.BigEndian.Uint64(eb[:])
	inner, err := sc.readFrameType(br)
	if err != nil {
		return err
	}
	ring := ringOf(q, true)
	switch inner {
	case frameReport, frameVecReport:
		sc.reset()
		var rep est.Report
		if inner == frameReport {
			rep, err = readReportBodyInto(br, sc)
		} else {
			rep, err = readVecReportBodyInto(br, sc)
		}
		if err != nil {
			return err
		}
		ack := byte(ackOK)
		if ring == nil {
			ack = ackErr
		} else {
			one := [1]est.Report{rep}
			if n, _ := ring.AddLate(id, one[:]); n != 1 {
				ack = ackErr
			}
		}
		return bw.WriteByte(ack)
	case frameBatch:
		var add func([]est.Report) (int, error)
		if ring != nil {
			add = func(chunk []est.Report) (int, error) { return ring.AddLate(id, chunk) }
		}
		return s.serveBatch(br, bw, sc, add)
	default:
		return fmt.Errorf("transport: EPOCH must wrap an ingest frame (0x01, 0x05 or 0x06), got 0x%02x", inner)
	}
}

// serveRingVector answers one status-prefixed vector exchange (WINDOW,
// DECAY) against q's ring: ackErr when the query is missing or one-shot,
// or when the ring refuses the parameters.
func serveRingVector(bw *bufio.Writer, q *est.Query, fn func(epochEstimator) ([]float64, error)) error {
	ring := ringOf(q, false)
	if ring == nil {
		return bw.WriteByte(ackErr)
	}
	out, err := fn(ring)
	if err != nil {
		return bw.WriteByte(ackErr)
	}
	if err := bw.WriteByte(ackOK); err != nil {
		return err
	}
	return writeFloats(bw, out)
}

// QueryInfo is a collector's description of one named query: its
// registration generation (changes every time the name is deleted and
// reopened — pin routes to it with Client.QueryAt), lifecycle state, and
// — for continual queries — the live epoch id.
type QueryInfo struct {
	Gen    uint64
	State  est.QueryState
	Epochs bool
	Epoch  uint64
}

// QueryInfo asks the collector about the named query (the QUERYINFO
// frame). An unknown name is an error.
func (c *Client) QueryInfo(name string) (QueryInfo, error) {
	defer c.begin()()
	if err := c.bw.WriteByte(frameQueryInfo); err != nil {
		return QueryInfo{}, err
	}
	if err := writeString(c.bw, name, maxNameLen); err != nil {
		return QueryInfo{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return QueryInfo{}, err
	}
	if err := c.readAck(fmt.Sprintf("collector has no query %q", name)); err != nil {
		return QueryInfo{}, err
	}
	var body [18]byte
	if _, err := io.ReadFull(c.br, body[:]); err != nil {
		return QueryInfo{}, err
	}
	return QueryInfo{
		Gen:    binary.BigEndian.Uint64(body[0:8]),
		State:  est.QueryState(body[8]),
		Epochs: body[9] != 0,
		Epoch:  binary.BigEndian.Uint64(body[10:18]),
	}, nil
}

// QueryAt returns a handle on the named query pinned to one registration
// generation (from QueryInfo or a server-side Gen). Every exchange uses
// a SELECTGEN route header: if the name has since been deleted and
// reopened, the route resolves to no query and the exchange is rejected,
// instead of the stale handle's reports silently landing in — or its
// reads leaking — the successor query's estimator.
func (c *Client) QueryAt(name string, gen uint64) *Query {
	return &Query{c: c, name: name, gen: gen, pinned: true}
}

// SendEpoch submits one report tagged with an explicit epoch id: the
// serving ring buckets it into that epoch (subject to its lateness
// policy) instead of the live one.
func (q *Query) SendEpoch(id uint64, rep est.Report) error {
	c := q.c
	defer c.begin()()
	if err := q.writeEpochHeaderLocked(id); err != nil {
		return err
	}
	if err := c.writeReport(rep); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	return c.readAck(fmt.Sprintf("query %q rejected epoch-%d report", q.name, id))
}

// SendBatchEpoch submits reps as one epoch-tagged BATCH frame and
// returns how many the collector accepted; reports the lateness policy
// refuses are skipped server-side, exactly as malformed reports are in
// SendBatch.
func (q *Query) SendBatchEpoch(id uint64, reps []est.Report) (accepted int, err error) {
	c := q.c
	defer c.begin()()
	if err := q.writeEpochHeaderLocked(id); err != nil {
		return 0, err
	}
	n, err := c.encodeAndSendLocked(CodecV1{}, "", 0, reps)
	if err != nil {
		return 0, err
	}
	return c.readBatchAckLocked(n)
}

// writeEpochHeaderLocked writes this handle's route header plus the
// EPOCH frame prefix; the embedded ingest frame follows. Caller holds
// c.mu.
func (q *Query) writeEpochHeaderLocked(id uint64) error {
	if err := q.routeLocked(); err != nil {
		return err
	}
	var buf [9]byte
	buf[0] = frameEpoch
	binary.BigEndian.PutUint64(buf[1:], id)
	_, err := q.c.bw.Write(buf[:])
	return err
}

// WindowEstimate asks the collector for the query's estimate over the
// last w epochs, live epoch included (the WINDOW frame). Requires a
// continual (epoch-enabled) query.
func (q *Query) WindowEstimate(w int) ([]float64, error) {
	if w < 1 {
		return nil, fmt.Errorf("transport: window of %d epochs", w)
	}
	c := q.c
	defer c.begin()()
	if err := q.routeLocked(); err != nil {
		return nil, err
	}
	var buf [5]byte
	buf[0] = frameWindow
	binary.BigEndian.PutUint32(buf[1:], uint32(w))
	if _, err := c.bw.Write(buf[:]); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	if err := c.readAck(fmt.Sprintf("query %q cannot serve a %d-epoch window estimate", q.name, w)); err != nil {
		return nil, err
	}
	return readFloats(c.br)
}

// DecayedEstimate asks the collector for the query's exponentially
// decayed estimate — epoch k behind the live one weighted gamma^k (the
// DECAY frame). Requires a continual query and gamma in (0, 1].
func (q *Query) DecayedEstimate(gamma float64) ([]float64, error) {
	c := q.c
	defer c.begin()()
	if err := q.routeLocked(); err != nil {
		return nil, err
	}
	var buf [9]byte
	buf[0] = frameDecay
	binary.BigEndian.PutUint64(buf[1:], math.Float64bits(gamma))
	if _, err := c.bw.Write(buf[:]); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	if err := c.readAck(fmt.Sprintf("query %q cannot serve a decayed estimate (γ=%g)", q.name, gamma)); err != nil {
		return nil, err
	}
	return readFloats(c.br)
}

// Rotate freezes the query's live epoch into its ring and returns the id
// of the new live epoch (the ROTATE frame). Requires an open continual
// query.
func (q *Query) Rotate() (uint64, error) {
	c := q.c
	defer c.begin()()
	if err := q.routeLocked(); err != nil {
		return 0, err
	}
	if err := c.bw.WriteByte(frameRotate); err != nil {
		return 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	if err := c.readAck(fmt.Sprintf("query %q cannot rotate (not a continual query?)", q.name)); err != nil {
		return 0, err
	}
	var nb [8]byte
	if _, err := io.ReadFull(c.br, nb[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(nb[:]), nil
}
