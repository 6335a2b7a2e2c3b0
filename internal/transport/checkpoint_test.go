package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
)

// newMeanServer stands up a collector around a small mean-family
// estimator and returns the server plus a connected client.
func newMeanServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	p, err := highdim.NewProtocol(ldp.Laplace{}, 0.8, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(highdim.NewAggregator(p))
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestCheckpointFrame(t *testing.T) {
	srv, cl := newMeanServer(t)

	// No sink wired: the frame NACKs with a reason, the conn survives.
	err := cl.Checkpoint()
	if err == nil || !strings.Contains(err.Error(), "no checkpoint sink") {
		t.Fatalf("Checkpoint without a sink: err = %v, want a no-sink rejection", err)
	}

	// The hook only returns after the state is "on disk": the client
	// must observe every report acknowledged before Checkpoint returned.
	var calls atomic.Int32
	srv.OnCheckpoint = func() error {
		calls.Add(1)
		return nil
	}
	if err := cl.Send(est.Report{Dims: []uint32{0, 1}, Values: []float64{1, -1}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("checkpoint hook ran %d times, want 1", got)
	}

	// Hook failures travel back as the NACK's error string.
	srv.OnCheckpoint = func() error { return fmt.Errorf("disk full") }
	err = cl.Checkpoint()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Checkpoint with failing sink: err = %v, want the sink's reason", err)
	}

	// The connection is still in sync after both rejections.
	if _, err := cl.Estimate(); err != nil {
		t.Fatalf("Estimate after checkpoint rejections: %v", err)
	}
}

func TestCheckpointCannotBeRouted(t *testing.T) {
	srv, cl := newMeanServer(t)
	srv.OnCheckpoint = func() error { return nil }

	// Hand-roll SELECT + CHECKPOINT: the server must refuse and drop the
	// connection (a checkpoint spans every query; routing it is a
	// protocol error, not a per-query request).
	cl.mu.Lock()
	if err := writeSelect(cl.bw, est.DefaultName); err != nil {
		t.Fatal(err)
	}
	if err := cl.bw.WriteByte(frameCheckpoint); err != nil {
		t.Fatal(err)
	}
	if err := cl.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	_, err := cl.br.Read(one[:])
	cl.mu.Unlock()
	if err == nil {
		t.Fatal("server answered a routed CHECKPOINT; want the connection torn down")
	}
}

func TestDrainWaitsForConnections(t *testing.T) {
	srv, cl := newMeanServer(t)
	// Complete one exchange first, so the connection is provably
	// registered with the server before Drain looks at the conn table.
	if err := cl.Send(est.Report{Dims: []uint32{0}, Values: []float64{1}}); err != nil {
		t.Fatal(err)
	}

	// With a client still connected, a short-deadline drain must time
	// out, then force-close — and still leave the server fully stopped.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with a live conn: err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("Drain returned before its context expired")
	}
	// The force-close killed the client's connection.
	if err := cl.Send(est.Report{Dims: []uint32{0}, Values: []float64{1}}); err == nil {
		t.Fatal("send succeeded after a drain force-close")
	}
}

func TestDrainFinishesWhenClientsLeave(t *testing.T) {
	srv, cl := newMeanServer(t)
	if err := cl.Send(est.Report{Dims: []uint32{0, 1}, Values: []float64{1, -1}}); err != nil {
		t.Fatal(err)
	}
	// Disconnect shortly after Drain begins: it must notice and return
	// nil well before its deadline, with every report still accounted.
	go func() {
		time.Sleep(30 * time.Millisecond)
		cl.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	counts := srv.Registry().Default().Estimator().Counts()
	if counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("counts after drain = %v, want the pre-drain report retained", counts)
	}
	// Drain implies Close semantics: a later Close is a safe no-op.
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after Drain: %v", err)
	}
}
