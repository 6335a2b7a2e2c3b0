package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/hdr4me/hdr4me/internal/est"
)

// DialContext connects to a collector at addr under ctx: a cancelled or
// expired context aborts the dial. The returned Client's exchanges are
// not bound to ctx — use the *Context exchange variants for that.
func DialContext(ctx context.Context, addr string, opts ...ClientOption) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, opts...), nil
}

// guard binds the connection to ctx for the duration of one exchange: the
// context deadline becomes the connection deadline when it is tighter
// than the one begin armed from SetTimeout, and a cancellation
// mid-exchange unblocks any pending read or write immediately. The
// returned release func detaches the context and clears the deadline;
// callers must invoke it before the next exchange. Caller holds c.mu.
func (c *Client) guard(ctx context.Context) func() {
	if ctx.Done() == nil {
		// Never cancelled and no deadline (context.Background): the plain
		// exchange methods arm nothing.
		return func() {}
	}
	if dl, ok := ctx.Deadline(); ok && (c.armed.IsZero() || dl.Before(c.armed)) {
		c.conn.SetDeadline(dl)
	}
	done := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		c.conn.SetDeadline(time.Unix(1, 0))
		close(done)
	})
	return func() {
		if !stop() {
			// The cancel callback already started; wait for it so the
			// clear below wins and cannot leave a poisoned deadline on
			// this long-lived connection.
			<-done
		}
		c.conn.SetDeadline(time.Time{})
	}
}

// Query is a client-side handle on one named query of a multi-query
// collector. Every exchange it performs is prefixed with a SELECT route
// header, so the same connection serves any number of queries
// concurrently; the handle shares the Client's mutex, so handles and the
// plain Client methods interleave safely.
type Query struct {
	c    *Client
	name string
	// gen pins the handle to one registration generation (QueryAt): when
	// pinned, every route header is a SELECTGEN instead of a SELECT, so a
	// handle outlived by its query (deleted, name reopened) gets rejections
	// instead of the successor query's data.
	gen    uint64
	pinned bool
}

// routeLocked writes this handle's route header — SELECT, or SELECTGEN
// when generation-pinned. Caller holds c.mu.
func (q *Query) routeLocked() error {
	if q.pinned {
		return writeSelectGen(q.c.bw, q.name, q.gen)
	}
	return writeSelect(q.c.bw, q.name)
}

// Query returns a handle on the named query. No wire exchange happens
// until the first method call, and the query need not exist yet.
func (c *Client) Query(name string) *Query { return &Query{c: c, name: name} }

// errQueryRejected prefixes the collector's reason for refusing an
// OPENQUERY; Open names the query only on such a rejection.
var errQueryRejected = errors.New("transport: collector rejected query")

// Open registers a new named query on the collector (the OPENQUERY frame)
// and returns its handle. The collector validates the spec, charges its ε
// against the per-user budget accountant, and builds the estimator; a
// rejection (name taken, budget exceeded, bad spec) comes back as an
// error carrying the collector's reason.
func (c *Client) Open(spec est.QuerySpec) (*Query, error) {
	c.begin()
	defer c.end()
	if err := WriteOpenQuery(c.bw, spec); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	if err := c.readReasonedAck(errQueryRejected); err != nil {
		if errors.Is(err, errQueryRejected) {
			err = fmt.Errorf("%w (query %q)", err, spec.Name)
		}
		return nil, err
	}
	return &Query{c: c, name: spec.Name}, nil
}

// Name returns the query name this handle routes to.
func (q *Query) Name() string { return q.name }

// Send submits one report to the query and waits for the acknowledgement.
func (q *Query) Send(rep est.Report) error {
	c := q.c
	c.begin()
	defer c.end()
	if err := q.routeLocked(); err != nil {
		return err
	}
	if err := c.writeReport(rep); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if err := c.readAck(); err != nil {
		return rejected(err, "transport: query %q rejected report", q.name)
	}
	return nil
}

// SendBatch submits reps to the query as one routed batch frame and
// returns how many the collector accepted, exactly as Client.SendBatch —
// including a v2 pin's negotiation before the first batch. On a v2
// connection the route travels in-frame (CBATCH carries its query
// name); generation-pinned handles keep the v1 SELECTGEN grammar, whose
// pin has no columnar equivalent.
func (q *Query) SendBatch(reps []est.Report) (accepted int, err error) {
	c := q.c
	c.begin()
	defer c.end()
	var n int
	if q.pinned {
		if err := q.routeLocked(); err != nil {
			return 0, err
		}
		n, err = c.writeBatchLocked("", 0, reps, false)
	} else {
		n, err = c.writeBatchLocked(q.name, 0, reps, true)
	}
	if err != nil {
		return 0, err
	}
	return c.readBatchAckLocked(n)
}

// Estimate asks the collector for the query's current naive aggregation.
func (q *Query) Estimate() ([]float64, error) {
	return q.vector(frameEstimate)
}

// Counts asks the collector for the query's per-dimension report counts.
func (q *Query) Counts() ([]int64, error) {
	c := q.c
	c.begin()
	defer c.end()
	if err := q.requestLocked(frameCounts); err != nil {
		return nil, err
	}
	return readInts(c.br)
}

// Enhanced asks the collector for the query's HDR4ME re-calibrated
// estimate.
func (q *Query) Enhanced() ([]float64, error) {
	return q.vector(frameEnhanced)
}

// PullSnapshot fetches the query's current estimator snapshot.
func (q *Query) PullSnapshot() (est.Snapshot, error) {
	c := q.c
	c.begin()
	defer c.end()
	if err := q.requestLocked(frameSnapshot); err != nil {
		return est.Snapshot{}, err
	}
	return DecodeSnapshot(c.br)
}

// PushSnapshot ships a snapshot into the query, which folds it into its
// estimator (same family and configuration required; sealed queries
// reject merges).
func (q *Query) PushSnapshot(s est.Snapshot) error {
	c := q.c
	c.begin()
	defer c.end()
	if err := q.routeLocked(); err != nil {
		return err
	}
	if err := WriteMerge(c.bw, s); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if err := c.readAck(); err != nil {
		return rejected(err, "transport: query %q rejected snapshot merge", q.name)
	}
	return nil
}

// vector runs one routed status-prefixed vector exchange (ESTIMATE,
// ENHANCED).
func (q *Query) vector(frame byte) ([]float64, error) {
	c := q.c
	c.begin()
	defer c.end()
	if err := q.requestLocked(frame); err != nil {
		return nil, err
	}
	return readFloats(c.br)
}

// requestLocked writes one routed payload-free request and reads the
// leading status byte every routed query exchange carries. Caller holds
// c.mu.
func (q *Query) requestLocked(frame byte) error {
	c := q.c
	if err := q.routeLocked(); err != nil {
		return err
	}
	if err := c.bw.WriteByte(frame); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if err := c.readAck(); err != nil {
		return rejected(err, "transport: collector cannot serve query %q", q.name)
	}
	return nil
}
