package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hdr4me/hdr4me/internal/est"
)

// Accept-loop backoff bounds: a persistent Accept error (EMFILE, ENFILE,
// ...) must not hot-spin the loop, so retries back off exponentially from
// acceptBackoffMin to acceptBackoffMax and reset on the next success —
// the same discipline net/http.Server uses.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

// Server is a TCP collector: it accepts report frames from any number of
// concurrent client connections and routes them into the named queries of
// an est.Registry — each query its own est.Core (the
// sampling-protocol mean aggregator, the whole-tuple aggregator and the
// frequency reducer all speak the same wire shape). Un-routed frames
// resolve to the registry's default query, so a single-tenant server
// (NewServer) is just a registry with one default entry and legacy
// clients keep working. Beyond single reports it serves BATCH frames
// (amortized ingestion), the SNAPSHOT/MERGE pair (shard-tree
// composition), OPENQUERY (remote query registration) and SELECT-routed
// exchanges against any named query.
type Server struct {
	// Logf receives per-connection errors; defaults to log.Printf.
	Logf func(format string, args ...any)

	// OnCheckpoint, when non-nil, serves the CHECKPOINT (0x0B) wire
	// frame: the owner wires it to its durable-state writer (see
	// internal/persist), so an operator — or the crash-recovery e2e —
	// can force the collector state to disk on demand. A nil hook NACKs
	// the frame; a hook error travels back as the NACK's error string.
	OnCheckpoint func() error

	// IdleTimeout bounds how long a connection may sit between (or
	// inside) frames: the read deadline is re-armed before every frame
	// and covers its body, so a stalled or trickling client is
	// force-closed — and counted in Stats — instead of pinning its
	// goroutine forever. Zero disables the deadline.
	IdleTimeout time.Duration

	// WriteTimeout bounds the replies of one exchange: the write
	// deadline is armed when a frame arrives and covers every reply
	// write through the final flush, so a client that stops reading
	// cannot wedge the server behind a full socket buffer. Zero
	// disables the deadline.
	WriteTimeout time.Duration

	// MaxConns caps concurrently served connections. An over-limit
	// accept is answered with a single retryable-NACK byte and closed —
	// shed, not queued — so admission failures are prompt and explicit.
	// Zero means unlimited.
	MaxConns int

	// MaxInflight caps the total reports being decoded and accumulated
	// across all connections at once, in report units. A batch that
	// would exceed it is consumed and NACKed retryable instead of
	// queuing behind the estimator; a batch bigger than the whole cap
	// is still admitted when the server is otherwise idle, so oversized
	// batches degrade to serial ingest rather than starving forever.
	// Zero means unlimited.
	MaxInflight int

	// SessionTTL bounds how long a disconnected replay session's state
	// is retained for resumption (default 2m). Sessions are swept
	// lazily on HELLO traffic.
	SessionTTL time.Duration

	reg *est.Registry

	stats    serverStats
	sessions sessionTable
	inflight atomic.Int64

	wg   sync.WaitGroup
	stop chan struct{}

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// serverStats aggregates the failure-path counters under atomics — they
// are bumped from connection goroutines and read by Stats.
type serverStats struct {
	connsShed        atomic.Uint64
	deadlinesTripped atomic.Uint64
	batchesShed      atomic.Uint64
	sessionsOpened   atomic.Uint64
	sessionsResumed  atomic.Uint64
	batchesDeduped   atomic.Uint64
	hellosV2         atomic.Uint64
	cbatchFrames     atomic.Uint64
}

// ServerStats is a point-in-time snapshot of a collector's failure
// counters: what was shed, what tripped a deadline, and how the
// exactly-once replay machinery is being exercised.
type ServerStats struct {
	// ConnsShed counts accepts refused with a retryable NACK because
	// MaxConns was reached.
	ConnsShed uint64 `json:"conns_shed"`
	// DeadlinesTripped counts connections force-closed by the idle or
	// write deadline.
	DeadlinesTripped uint64 `json:"deadlines_tripped"`
	// BatchesShed counts BATCH frames NACKed retryable — the MaxInflight
	// admission gate plus sequencing gaps after an earlier shed.
	BatchesShed uint64 `json:"batches_shed"`
	// SessionsOpened counts HELLO frames that minted a new replay
	// session.
	SessionsOpened uint64 `json:"sessions_opened"`
	// SessionsResumed counts HELLO frames that re-attached to a live
	// session — each one a client-side reconnect.
	SessionsResumed uint64 `json:"sessions_resumed"`
	// BatchesDeduped counts sequenced batches that were already applied
	// and acknowledged from the session record — replays the
	// exactly-once contract suppressed.
	BatchesDeduped uint64 `json:"batches_deduped"`
	// HellosV2 counts HELLO exchanges that negotiated protocol version 2
	// or higher — how much of the client population speaks the columnar
	// frame.
	HellosV2 uint64 `json:"hellos_v2"`
	// CBatches counts columnar batch (0x13 CBATCH) frames served,
	// whatever their outcome.
	CBatches uint64 `json:"cbatch_frames"`
	// ProtocolMax is the highest wire protocol version this collector
	// speaks (constant per build, carried here so /debug/collector
	// reports it).
	ProtocolMax int `json:"protocol_max"`
}

// Stats snapshots the server's failure counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		ConnsShed:        s.stats.connsShed.Load(),
		DeadlinesTripped: s.stats.deadlinesTripped.Load(),
		BatchesShed:      s.stats.batchesShed.Load(),
		SessionsOpened:   s.stats.sessionsOpened.Load(),
		SessionsResumed:  s.stats.sessionsResumed.Load(),
		BatchesDeduped:   s.stats.batchesDeduped.Load(),
		HellosV2:         s.stats.hellosV2.Load(),
		CBatches:         s.stats.cbatchFrames.Load(),
		ProtocolMax:      ProtocolMax,
	}
}

// NewServer wraps a single estimator core in a collector server: a
// registry with e as its default query (no factory, no admission — the
// multi-query surface needs NewRegistryServer).
func NewServer(e est.Core) *Server {
	reg := est.NewRegistry(nil, nil)
	if _, err := reg.Attach(est.QuerySpec{Name: est.DefaultName}, e); err != nil {
		// Attach of a non-nil estimator under a fresh name cannot fail.
		panic(fmt.Sprintf("transport: default query: %v", err))
	}
	return NewRegistryServer(reg)
}

// NewRegistryServer wraps a registry of named queries in a collector
// server. Legacy un-routed frames resolve to the registry's default query
// (est.DefaultName), if one is registered.
func NewRegistryServer(reg *est.Registry) *Server {
	return &Server{
		Logf:  log.Printf,
		reg:   reg,
		stop:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
}

// Registry exposes the registry this server routes into.
func (s *Server) Registry() *est.Registry { return s.reg }

// Listen binds addr ("host:port"; use ":0" for an ephemeral port) and starts
// serving in background goroutines. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	return s.ListenContext(context.Background(), addr)
}

// ListenContext is Listen bound to a context: when ctx is cancelled the
// server closes its listener and every open connection, exactly as Close.
// A nil ctx is treated as context.Background().
func (s *Server) ListenContext(ctx context.Context, addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := s.ServeContext(ctx, ln); err != nil {
		ln.Close()
		return nil, err
	}
	return ln.Addr(), nil
}

// Serve starts serving on an existing listener in background goroutines,
// for callers that bind their own socket (systemd activation, tests).
func (s *Server) Serve(ln net.Listener) error {
	return s.ServeContext(context.Background(), ln)
}

// ServeContext is Serve bound to a context, exactly as ListenContext.
func (s *Server) ServeContext(ctx context.Context, ln net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	if s.ln != nil {
		s.mu.Unlock()
		return fmt.Errorf("transport: server already listening")
	}
	s.ln = ln
	s.mu.Unlock()
	if done := ctx.Done(); done != nil {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			select {
			case <-done:
				s.shutdown()
			case <-s.stop: // server closed first; the watcher must not leak
			}
		}()
	}
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			s.Logf("transport: accept: %v; retrying in %v", err, backoff)
			select {
			case <-time.After(backoff):
			case <-s.stop:
				return
			}
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.MaxConns > 0 && len(s.conns) >= s.MaxConns {
			s.mu.Unlock()
			s.stats.connsShed.Add(1)
			s.wg.Add(1)
			go s.shedConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			if err := s.serveConn(conn); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					s.stats.deadlinesTripped.Add(1)
					s.Logf("transport: conn %s: deadline tripped (%v); force-closed", conn.RemoteAddr(), err)
				} else {
					s.Logf("transport: conn %s: %v", conn.RemoteAddr(), err)
				}
			}
		}()
	}
}

// shedWriteTimeout bounds the single-byte NACK write of a shed accept,
// so a peer that never reads cannot pin the shed goroutine.
const shedWriteTimeout = 2 * time.Second

// shedConn answers an over-limit accept with one retryable-NACK byte and
// closes the connection: the client learns immediately that the
// collector is at capacity (and may back off and redial) instead of
// queuing behind a listener that will never serve it.
func (s *Server) shedConn(conn net.Conn) {
	defer s.wg.Done()
	conn.SetWriteDeadline(time.Now().Add(shedWriteTimeout))
	conn.Write([]byte{ackRetry})
	// The client may have optimistically written a request we will never
	// read; closing with unread bytes in the receive buffer would turn
	// into a RST that can destroy the NACK before the client reads it.
	// Half-close the write side and briefly drain instead, so the NACK
	// is delivered and the client sees a clean EOF.
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
		conn.SetReadDeadline(time.Now().Add(shedWriteTimeout))
		io.Copy(io.Discard, conn)
	}
	conn.Close()
}

// admit reserves n reports of in-flight ingest capacity, failing fast
// when the reservation would exceed MaxInflight. A batch larger than the
// whole cap is admitted when nothing else is in flight (cur == 0), so it
// degrades to serial ingest instead of being shed forever.
func (s *Server) admit(n int64) bool {
	if s.MaxInflight <= 0 {
		return true
	}
	for {
		cur := s.inflight.Load()
		if cur > 0 && cur+n > int64(s.MaxInflight) {
			return false
		}
		if s.inflight.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// release returns capacity reserved by admit.
func (s *Server) release(n int64) {
	if s.MaxInflight > 0 {
		s.inflight.Add(-n)
	}
}

// errNoQuery rejects every report of a batch with no target: routed to a
// missing query, or EPOCH-wrapped for a query with no epoch ring.
var errNoQuery = errors.New("transport: no such query")

// writeNack writes a rejection status followed by its truncated reason
// string — the reply shape OPENQUERY and CHECKPOINT rejections share.
func writeNack(bw *bufio.Writer, reason string) error {
	if err := bw.WriteByte(ackErr); err != nil {
		return err
	}
	if len(reason) > maxErrLen {
		reason = reason[:maxErrLen]
	}
	return writeString(bw, reason, maxErrLen)
}

// connReadBuf sizes each connection's read buffer: big enough that the
// peek-based embedded-frame decoder almost never falls back to the
// copying path, and that a full default-sized batch needs one socket
// read instead of sixteen.
const connReadBuf = 64 << 10

// serverConn is one accepted connection's serving state: the socket,
// its decode scratch (report frames decode with zero steady-state
// allocations), one accumulation lane per query it touches, and the
// replay session a HELLO attached (nil outside one). The buffered
// endpoints are deliberately not fields: every handler takes br and bw
// as parameters, which is what framedrain's body-before-status check
// tracks.
type serverConn struct {
	s     *Server
	conn  net.Conn
	sc    decodeScratch
	lanes map[*est.Query]est.Lane
	sess  *connSession
	// routed is the query name of the last route header, reused while
	// the headers repeat it (see routeName).
	routed string
}

// lane returns the connection's accumulation lane on q, acquiring it on
// first use, so all of this connection's reports land in one stripe —
// in arrival order, exactly as a serial collector would — while other
// connections accumulate under their own stripe locks.
func (c *serverConn) lane(q *est.Query) est.Lane {
	l, ok := c.lanes[q]
	if !ok {
		if c.lanes == nil {
			c.lanes = make(map[*est.Query]est.Lane, 1)
		}
		l = q.AcquireLane()
		c.lanes[q] = l
	}
	return l
}

// serveConn processes frames until the peer closes the connection. Both
// directions are buffered; every reply is flushed before the next read so
// a pipelining client (BufferedClient) sees acks promptly.
//
// Each iteration reads one frame type and resolves its target query
// through route: the default query, or — behind a SELECT/SELECTGEN
// prefix — the named one, for exactly the one frame that follows. A
// routed frame that is not routable is a grammar error and tears the
// connection down. A resolution failure (unknown name, stale
// generation, no default) is answered with the frame's rejection status
// after its body has been consumed, so one bad route never desyncs the
// connection. Every batch grammar — 0x06 BATCH, 0x13 CBATCH, and a 0x06
// BATCH inside EPOCH — is served by the one ingest core.
func (s *Server) serveConn(conn net.Conn) error {
	br := bufio.NewReaderSize(conn, connReadBuf)
	bw := bufio.NewWriter(conn)
	c := &serverConn{s: s, conn: conn}
	defer func() {
		if c.sess != nil {
			s.sessions.detach(c.sess, conn)
		}
	}()
	for {
		if s.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.IdleTimeout)); err != nil {
				return err
			}
		}
		ft, err := c.sc.readFrameType(br)
		if err != nil {
			return err
		}
		if s.WriteTimeout > 0 {
			// Armed per exchange, before dispatch: replies bigger than the
			// write buffer flush mid-exchange, and those writes must be
			// bounded too, not just the final flush.
			if err := conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout)); err != nil {
				return err
			}
		}
		ft, q, routed, err := c.route(br, ft)
		if err != nil {
			return err
		}
		if routed && !routable(ft) {
			return fmt.Errorf("transport: frame 0x%02x cannot be routed", ft)
		}
		switch ft {
		case frameOpenQuery:
			var spec est.QuerySpec
			if spec, err = DecodeQuerySpec(br); err != nil {
				return err
			}
			_, oerr := s.reg.Open(spec)
			err = writeResult(bw, oerr)
		case frameCheckpoint:
			if s.OnCheckpoint == nil {
				err = writeNack(bw, "collector has no checkpoint sink (no -state-dir)")
			} else {
				err = writeResult(bw, s.OnCheckpoint())
			}
		case frameReport, frameVecReport:
			var rep est.Report
			if rep, err = readReport(ft, br, &c.sc); err != nil {
				return err
			}
			err = writeAck(bw, q != nil && c.lane(q).AddReport(rep) == nil)
		case frameBatch:
			err = c.serveBatch(br, bw, c.sess, batchTarget{q: q})
		case frameEstimate, frameCounts:
			// The routed forms carry a status byte the legacy forms lack:
			// a legacy client has nowhere to learn about a missing query,
			// so an un-routed request without a default query kills the
			// connection instead of desyncing it.
			if q == nil && !routed {
				return fmt.Errorf("transport: no default query to serve frame 0x%02x", ft)
			}
			if q == nil {
				err = writeAck(bw, false)
				break
			}
			// One Write per reply: the routed status byte, then the vector.
			var status []byte
			if routed {
				status = []byte{ackOK}
			}
			// The vector is filled into a pooled one and marshalled
			// from it, so the reply allocates nothing.
			if ft == frameEstimate {
				vp := floatPool.Get(0)
				*vp = q.Estimator().EstimateInto(*vp)
				err = writeFloats(bw, *vp, status...)
				floatPool.Put(vp)
			} else {
				vp := intPool.Get(0)
				*vp = q.Estimator().CountsInto(*vp)
				err = writeInts(bw, *vp, status...)
				intPool.Put(vp)
			}
		case frameSnapshot:
			if q == nil {
				err = writeAck(bw, false)
				break
			}
			err = writeSnapshotReply(bw, q.Estimator())
		case frameMerge:
			var snap est.Snapshot
			if snap, err = DecodeSnapshot(br); err != nil {
				return err
			}
			err = writeAck(bw, q != nil && q.Merge(snap) == nil)
		case frameEnhanced:
			if q == nil {
				err = bw.WriteByte(ackErr)
				break
			}
			err = writeVector(bw, q.Estimator().EnhancedInto)
		case frameEpoch:
			err = c.serveEpoch(br, bw, q)
		case frameWindow:
			var wb uint32
			if wb, err = c.sc.readUint32(br); err != nil {
				return err
			}
			w := int(wb)
			err = serveRingVector(bw, q, func(r epochEstimator, dst []float64) ([]float64, error) {
				return r.WindowEstimateInto(dst, w)
			})
		case frameDecay:
			if _, err = io.ReadFull(br, c.sc.n[:8]); err != nil {
				return err
			}
			gamma := math.Float64frombits(binary.BigEndian.Uint64(c.sc.n[:8]))
			err = serveRingVector(bw, q, func(r epochEstimator, dst []float64) ([]float64, error) {
				return r.DecayedEstimateInto(dst, gamma)
			})
		case frameRotate:
			if ring := ringOf(q, true); ring == nil {
				err = bw.WriteByte(ackErr)
			} else {
				var reply [9]byte
				reply[0] = ackOK
				binary.BigEndian.PutUint64(reply[1:], ring.Rotate())
				_, err = bw.Write(reply[:])
			}
		case frameQueryInfo:
			var name string
			if name, err = readString(br, maxNameLen); err != nil {
				return err
			}
			target := s.reg.Get(name)
			if target == nil {
				err = bw.WriteByte(ackErr)
				break
			}
			var reply [19]byte
			reply[0] = ackOK
			binary.BigEndian.PutUint64(reply[1:9], target.Gen())
			reply[9] = byte(target.State())
			if ring := ringOf(target, false); ring != nil {
				reply[10] = 1
				binary.BigEndian.PutUint64(reply[11:19], ring.Current())
			}
			_, err = bw.Write(reply[:])
		case frameHello:
			err = c.serveHello(br, bw)
		case frameCBatch:
			err = c.serveCBatch(br, bw)
		default:
			return fmt.Errorf("unknown frame type 0x%02x", ft)
		}
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			return err
		}
	}
}

// route resolves the target query of the frame whose type byte ft was
// just read. A SELECT or SELECTGEN prefix carries the query name —
// SELECTGEN also the registration generation the client pinned, and a
// mismatch resolves to no query rather than silently landing the
// exchange in a successor registered under the same name — followed by
// the routed frame's own type byte, which route reads and returns. Any
// other frame targets the default query. q is nil when the route
// resolves nowhere.
func (c *serverConn) route(br *bufio.Reader, ft byte) (inner byte, q *est.Query, routed bool, err error) {
	if ft != frameSelect && ft != frameSelectGen {
		return ft, c.s.reg.Default(), false, nil
	}
	name, err := c.routeName(br)
	if err != nil {
		return 0, nil, true, err
	}
	q = c.s.reg.Get(name)
	if ft == frameSelectGen {
		if _, err := io.ReadFull(br, c.sc.n[:8]); err != nil {
			return 0, nil, true, err
		}
		if gen := binary.BigEndian.Uint64(c.sc.n[:8]); q != nil && q.Gen() != gen {
			q = nil
		}
	}
	inner, err = c.sc.readFrameType(br)
	return inner, q, true, err
}

// routeName reads a route header's query name, exactly as readString
// does. A connection routes to the same few queries over and over, so
// the last name read is kept and reused when the next header repeats
// it: a routed exchange then allocates no string.
func (c *serverConn) routeName(br *bufio.Reader) (string, error) {
	n, err := c.sc.readUint32(br)
	if err != nil {
		return "", err
	}
	if n > maxNameLen {
		return "", fmt.Errorf("transport: string of %d bytes exceeds limit %d", n, maxNameLen)
	}
	b := c.sc.bytes(int(n))
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	if string(b) != c.routed {
		c.routed = string(b)
	}
	return c.routed, nil
}

// routable reports whether a frame of type ft may follow a route
// prefix. OPENQUERY, CHECKPOINT and HELLO act on the collector as a
// whole, and QUERYINFO and CBATCH name their query in the body.
func routable(ft byte) bool {
	switch ft {
	case frameOpenQuery, frameCheckpoint, frameQueryInfo, frameHello, frameCBatch:
		return false
	}
	return true
}

// writeAck writes a one-byte status: ackOK when ok, ackErr otherwise.
func writeAck(bw *bufio.Writer, ok bool) error {
	if ok {
		return bw.WriteByte(ackOK)
	}
	return bw.WriteByte(ackErr)
}

// writeResult answers an exchange whose rejection carries a reason
// (OPENQUERY, CHECKPOINT): ackOK for a nil cause, its NACK otherwise.
func writeResult(bw *bufio.Writer, cause error) error {
	if cause == nil {
		return bw.WriteByte(ackOK)
	}
	return writeNack(bw, cause.Error())
}

// floatPool and intPool recycle the vectors the collector fills only to
// marshal them into a reply.
var (
	floatPool est.SlicePool[float64]
	intPool   est.SlicePool[int64]
)

// writeVector answers a status-prefixed vector exchange (ENHANCED,
// WINDOW, DECAY): fill writes the vector into a pooled one, and the
// reply is ackErr when it fails, ackOK and the vector otherwise, in one
// Write.
func writeVector(bw *bufio.Writer, fill func(dst []float64) ([]float64, error)) error {
	vp := floatPool.Get(0)
	defer floatPool.Put(vp)
	out, err := fill(*vp)
	if err != nil {
		return bw.WriteByte(ackErr)
	}
	*vp = out
	return writeFloats(bw, out, ackOK)
}

// writeSnapshotReply answers a SNAPSHOT exchange with ackOK and the
// estimator's snapshot in one Write. The fold is pooled scratch, encoded
// straight from its arrays, so the reply allocates nothing.
func writeSnapshotReply(bw *bufio.Writer, e est.Core) error {
	f := est.GetScratch()
	defer est.PutScratch(f)
	e.SnapshotInto(f)
	if err := checkSnapshot(*f); err != nil {
		return err
	}
	return writePooled(bw, func(b []byte) []byte { return appendSnapshot(append(b, ackOK), *f) })
}

// writeBatchReply writes the 5-byte batch acknowledgement: status plus
// accepted count.
func writeBatchReply(bw *bufio.Writer, status byte, accepted uint32) error {
	var reply [5]byte
	reply[0] = status
	binary.BigEndian.PutUint32(reply[1:], accepted)
	_, err := bw.Write(reply[:])
	return err
}

// sessionTTL resolves the effective replay-session retention.
func (s *Server) sessionTTL() time.Duration {
	if s.SessionTTL > 0 {
		return s.SessionTTL
	}
	return sessionTTLDefault
}

// serveHello handles one HELLO frame — legacy or versioned — and updates
// the connection's session. A versioned request (helloFlagVersioned set
// in the token field) carries the client's maximum protocol version and
// is answered with the 25-byte reply body whose trailing byte is
// min(client max, ProtocolMax); the noSession flag short-circuits into a
// pure negotiation ping that opens, resumes and touches nothing. Legacy
// 8-byte-token requests get the legacy 24-byte reply, byte for byte as
// before.
func (c *serverConn) serveHello(br *bufio.Reader, bw *bufio.Writer) error {
	s := c.s
	var tb [8]byte
	if _, err := io.ReadFull(br, tb[:]); err != nil {
		return err
	}
	raw := binary.BigEndian.Uint64(tb[:])
	versioned := raw&helloFlagVersioned != 0
	token := raw
	negotiated := 0
	if versioned {
		token = raw & helloTokenMask
		clientMax := int(raw & helloVersionMask >> helloVersionShift)
		if clientMax == 0 {
			return writeNack(bw, "versioned HELLO with protocol version 0")
		}
		negotiated = min(clientMax, ProtocolMax)
		if negotiated >= ProtocolV2 {
			s.stats.hellosV2.Add(1)
		}
		if raw&helloFlagNoSession != 0 {
			// Negotiation-only ping: no session is opened or resumed, the
			// session fields of the reply stay zero.
			if err := bw.WriteByte(ackOK); err != nil {
				return err
			}
			return writeHelloReply(bw, helloReply{}, negotiated)
		}
	}
	if c.sess != nil {
		s.sessions.detach(c.sess, c.conn)
		c.sess = nil
	}
	s.sessions.sweep(s.sessionTTL())
	if token == 0 {
		ns, oerr := s.sessions.open(c.conn)
		if oerr != nil {
			return writeNack(bw, oerr.Error())
		}
		c.sess = ns
		s.stats.sessionsOpened.Add(1)
	} else {
		ns, displaced, ok := s.sessions.resume(token, c.conn)
		if !ok {
			return writeNack(bw, fmt.Sprintf("unknown or expired session token %#x", token))
		}
		if displaced != nil && displaced != c.conn {
			// The session's previous connection is still up (a half-dead
			// link the client gave up on): force it out so exactly one
			// connection owns the replay state.
			displaced.Close()
		}
		c.sess = ns
		s.stats.sessionsResumed.Add(1)
	}
	if err := bw.WriteByte(ackOK); err != nil {
		return err
	}
	return writeHelloReply(bw, c.sess.state(), negotiated)
}

// batchHeader is one batch frame's parsed header, whatever its grammar:
// the session sequence number (0 when unsequenced), the report count,
// and — for a columnar CBATCH body — the per-row dims and values shape.
type batchHeader struct {
	seq      uint64
	n        uint32
	columnar bool
	nd, nv   int
}

// batchTarget is where an admitted batch lands: query q through the
// connection's lane, or — for an EPOCH-wrapped batch — epoch id of ring
// through its lateness policy. A target with neither has nowhere to
// land the batch (no such query, or no epoch ring): its body is still
// consumed and the reply carries ackErr.
type batchTarget struct {
	q    *est.Query
	ring epochEstimator
	id   uint64
}

// serveBatch parses one 0x06 BATCH header — the uint64 sequence number
// when sess sequences the batch, then the uint32 report count — and
// hands the embedded report frames to ingest.
func (c *serverConn) serveBatch(br *bufio.Reader, bw *bufio.Writer, sess *connSession, to batchTarget) error {
	var h batchHeader
	if sess != nil {
		var sb [8]byte
		if _, err := io.ReadFull(br, sb[:]); err != nil {
			return err
		}
		h.seq = binary.BigEndian.Uint64(sb[:])
	}
	var err error
	if h.n, err = c.sc.readUint32(br); err != nil {
		return err
	}
	if h.n > maxBatch {
		return fmt.Errorf("transport: batch of %d reports exceeds limit %d", h.n, maxBatch)
	}
	return c.ingest(br, bw, sess, h, to)
}

// serveCBatch parses one columnar batch (0x13 CBATCH) header — the
// in-frame route (an empty name is the default query), sequence, count
// and row shape — and hands the body to ingest, sequenced by the
// connection's session exactly as a 0x06 batch. The server is
// deliberately stateless about protocol negotiation: it accepts CBATCH
// from any connection; only clients gate their encoder on the HELLO
// outcome.
func (c *serverConn) serveCBatch(br *bufio.Reader, bw *bufio.Writer) error {
	name, h, err := readCBatchHeader(br, &c.sc)
	if err != nil {
		return err
	}
	q := c.s.reg.Default()
	if len(name) > 0 {
		q = c.s.reg.Get(string(name))
	}
	return c.ingest(br, bw, c.sess, h, batchTarget{q: q})
}

// ingest is the collector's one batch-ingest core: every batch grammar
// (0x06 top-level or inside EPOCH, 0x13 CBATCH) arrives here with its
// header parsed, and sess the replay session sequencing it (nil for an
// unsequenced batch). The steps run in order, and every body read
// happens before the first reply byte:
//
//  1. seq must be 0 exactly when there is no session;
//  2. the sequence is classified (next in line, duplicate, or gap);
//  3. an in-order batch reserves its MaxInflight capacity;
//  4. the body is consumed — decoded when admitted, discarded otherwise;
//  5. a duplicate is answered with its recorded ack, a gap or shed with
//     a retryable NACK;
//  6. the batch is applied: an unsequenced 0x06 body streams into the
//     target in bounded chunks as it decodes (a wire error mid-batch
//     keeps the decoded prefix); a CBATCH body lands whole after
//     decode; a sequenced batch is decoded in full and lands through
//     the session's commit, all or nothing and at most once;
//  7. the reply carries the status and accepted count — ackErr when
//     there is no target.
func (c *serverConn) ingest(br *bufio.Reader, bw *bufio.Writer, sess *connSession, h batchHeader, to batchTarget) error {
	if (h.seq == 0) != (sess == nil) {
		return fmt.Errorf("transport: batch sequence %d does not match the connection's session (sequenced: %t)", h.seq, sess != nil)
	}
	s := c.s
	if h.columnar {
		s.stats.cbatchFrames.Add(1)
	}
	class := seqApply
	if sess != nil {
		class = sess.seqClass(h.seq)
	}
	admitted := class == seqApply && s.admit(int64(h.n))
	if admitted {
		defer s.release(int64(h.n))
	}
	var (
		reps     []est.Report
		dims     []uint32
		vals     []float64
		accepted uint32
		err      error
	)
	// land adds decoded reports — or, for a columnar batch, the decoded
	// columns — to the target. The lane is resolved here, so a shed or
	// duplicate batch acquires none.
	land := func(chunk []est.Report) (int, error) {
		switch {
		case to.ring != nil:
			return to.ring.AddLate(to.id, chunk)
		case to.q == nil:
			return 0, errNoQuery
		case h.columnar:
			return est.AddColumns(c.lane(to.q), int(h.n), h.nd, h.nv, dims, vals)
		}
		return c.lane(to.q).AddReports(chunk)
	}
	switch {
	case !admitted && h.columnar:
		err = discardCBatchBody(br, &c.sc, int(h.n), h.nd, h.nv)
	case !admitted:
		err = discardBatchReports(br, &c.sc, h.n)
	case h.columnar:
		dims, vals, err = decodeCBatchBody(br, &c.sc, int(h.n), h.nd, h.nv)
	case sess != nil:
		reps, err = readSeqBatch(br, &c.sc, h.n)
	default:
		accepted, err = readBatchBuffered(br, &c.sc, h.n, land)
	}
	if err != nil {
		return err
	}
	switch {
	case class == seqDup:
		// Already applied: repeat the recorded acknowledgement. This is
		// the replay-suppression half of exactly-once.
		s.stats.batchesDeduped.Add(1)
		return writeBatchReply(bw, ackOK, sess.dupAck(h.seq))
	case class == seqGap, !admitted:
		// Either an earlier batch was shed and the client pipelined past
		// it (it cannot apply in order), or this batch itself failed
		// admission: NACK retryable, the client re-ships in order.
		s.stats.batchesShed.Add(1)
		return bw.WriteByte(ackRetry)
	}
	status := byte(ackOK)
	switch {
	case sess != nil:
		status, accepted, err = sess.commit(c.conn, h.seq, func() (int, error) { return land(reps) })
		if err != nil {
			return err
		}
		if status == ackRetry {
			s.stats.batchesShed.Add(1)
			return bw.WriteByte(ackRetry)
		}
	case h.columnar:
		n, _ := land(nil)
		accepted = uint32(n)
	}
	if to.q == nil && to.ring == nil {
		// The batch was processed (and, when sequenced, consumed its
		// sequence slot) with zero accepted, but the reply must carry the
		// rejection.
		status = ackErr
	}
	return writeBatchReply(bw, status, accepted)
}

// shutdown closes the listener and every open connection exactly once.
// Calling it before Listen is a safe no-op.
func (s *Server) shutdown() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return err
}

// Close stops accepting, closes open connections, and waits for the
// serving goroutines to drain. Closing before Listen, or twice, is safe.
func (s *Server) Close() error {
	err := s.shutdown()
	s.wg.Wait()
	return err
}

// drainPoll is how often Drain re-checks the open-connection count while
// waiting for clients to disconnect.
const drainPoll = 10 * time.Millisecond

// Drain is the graceful half of Close: it stops accepting new
// connections immediately, then waits for the open ones to finish their
// in-flight exchanges and disconnect on their own — every reply is
// flushed before the next read, so a connection is always between whole
// exchanges when it goes away. When ctx expires first, the remaining
// connections are force-closed and ctx's error is returned; either way
// the serving goroutines have fully drained when Drain returns, so the
// caller can take a final checkpoint knowing no report will land after
// it. Like Close, Drain finishes the server for good — draining before
// Listen leaves it unable to serve, and draining after Close is a
// no-op.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	ln := s.ln
	s.ln = nil // a later Close must not double-close
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	var err error
loop:
	for {
		s.mu.Lock()
		n := len(s.conns)
		closed := s.closed
		s.mu.Unlock()
		if n == 0 || closed {
			break
		}
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break loop
		case <-s.stop:
			break loop
		case <-time.After(drainPoll):
		}
	}
	s.shutdown()
	s.wg.Wait()
	return err
}
