package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"github.com/hdr4me/hdr4me/internal/epoch"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
)

// fuzzRingFactory builds continual (epoch-ring) mean estimators without
// a testing.T, so the fuzz target can rebuild a registry per run.
func fuzzRingFactory() est.Factory {
	mk := func(spec est.QuerySpec) (est.Core, error) {
		p, err := highdim.NewProtocol(ldp.Piecewise{}, spec.Eps, spec.D, spec.M)
		if err != nil {
			return nil, err
		}
		return highdim.NewAggregator(p), nil
	}
	return func(spec est.QuerySpec) (est.Core, error) {
		inner, err := mk(spec)
		if err != nil {
			return nil, err
		}
		return epoch.New(inner.(*highdim.Aggregator).Family, epoch.Config{})
	}
}

func fuzzRegistry() *est.Registry {
	reg := est.NewRegistry(fuzzRingFactory(), nil)
	if _, err := reg.Open(est.QuerySpec{Name: est.DefaultName, Kind: est.KindMean, Eps: 1, D: 2}); err != nil {
		panic(err)
	}
	return reg
}

// FuzzFrameExchange feeds whole client→server byte streams to a live
// serveConn over an in-memory pipe: the fuzzer owns the full wire
// grammar, not one codec at a time. The seed corpus holds one valid
// exchange per frame type, each frame constant named explicitly — the
// wireframe analyzer checks that every declared frame byte appears
// here, so a frame cannot ship fuzz-blind. The target asserts only that
// the server neither panics nor hangs on any mutation: body-length
// confusion, truncated frames, and route/frame interleavings all land
// on the same reject-and-drain paths the framedrain analyzer guards.
func FuzzFrameExchange(f *testing.F) {
	rep := rep2(0.5, -0.5)
	repFrame := appendReport(nil, rep.Dims, rep.Values)
	gen := fuzzRegistry().Get(est.DefaultName).Gen()
	snap := func() est.Snapshot {
		reg := fuzzRegistry()
		q := reg.Get(est.DefaultName)
		_ = q.AddReport(rep)
		return q.Estimator().Snapshot()
	}()

	seed := func(build func(b *bytes.Buffer)) {
		var b bytes.Buffer
		build(&b)
		f.Add(b.Bytes())
	}
	u32 := func(b *bytes.Buffer, v uint32) {
		var x [4]byte
		binary.BigEndian.PutUint32(x[:], v)
		b.Write(x[:])
	}
	u64 := func(b *bytes.Buffer, v uint64) {
		var x [8]byte
		binary.BigEndian.PutUint64(x[:], v)
		b.Write(x[:])
	}

	seed(func(b *bytes.Buffer) { b.WriteByte(frameReport); b.Write(repFrame[1:]) })
	seed(func(b *bytes.Buffer) {
		b.WriteByte(frameVecReport)
		b.Write(appendVecReport(nil, nil, []float64{0.5, -0.5})[1:])
	})
	seed(func(b *bytes.Buffer) { b.WriteByte(frameBatch); u32(b, 1); b.Write(repFrame) })
	seed(func(b *bytes.Buffer) { b.WriteByte(frameEstimate) })
	seed(func(b *bytes.Buffer) { b.WriteByte(frameCounts) })
	seed(func(b *bytes.Buffer) { b.WriteByte(frameEnhanced) })
	seed(func(b *bytes.Buffer) { b.WriteByte(frameSnapshot) })
	seed(func(b *bytes.Buffer) { b.WriteByte(frameMerge); _ = EncodeSnapshot(b, snap) })
	seed(func(b *bytes.Buffer) {
		b.WriteByte(frameOpenQuery)
		_ = EncodeQuerySpec(b, est.QuerySpec{Name: "opened", Kind: est.KindMean, Eps: 0.5, D: 2})
	})
	seed(func(b *bytes.Buffer) {
		b.WriteByte(frameSelect)
		_ = writeString(b, est.DefaultName, maxNameLen)
		b.WriteByte(frameEstimate)
	})
	seed(func(b *bytes.Buffer) { b.WriteByte(frameCheckpoint) })
	seed(func(b *bytes.Buffer) { b.WriteByte(frameEpoch); u64(b, 0); b.Write(repFrame) })
	seed(func(b *bytes.Buffer) { b.WriteByte(frameWindow); u32(b, 1) })
	seed(func(b *bytes.Buffer) { b.WriteByte(frameDecay); u64(b, math.Float64bits(0.5)) })
	seed(func(b *bytes.Buffer) { b.WriteByte(frameRotate) })
	seed(func(b *bytes.Buffer) {
		b.WriteByte(frameSelectGen)
		_ = writeString(b, est.DefaultName, maxNameLen)
		u64(b, gen)
		b.WriteByte(frameEstimate)
	})
	seed(func(b *bytes.Buffer) {
		b.WriteByte(frameQueryInfo)
		_ = writeString(b, est.DefaultName, maxNameLen)
	})
	// HELLO with the open-a-new-session sentinel token, then a sequenced
	// batch: the session handshake and the (session, sequence) batch
	// grammar both face the fuzzer.
	seed(func(b *bytes.Buffer) { b.WriteByte(frameHello); u64(b, 0) })
	seed(func(b *bytes.Buffer) {
		b.WriteByte(frameHello)
		u64(b, 0)
		b.WriteByte(frameBatch)
		u64(b, 1) // session batch sequence
		u32(b, 1)
		b.Write(repFrame)
	})
	// HELLO with an unknown token: the reasoned-rejection path.
	seed(func(b *bytes.Buffer) { b.WriteByte(frameHello); u64(b, 0xdeadbeef) })
	// Versioned HELLO (negotiation ping and session open), and the v2
	// columnar frameCBatch grammar: bare, sequenced under a session, and
	// with a degenerate shape.
	seed(func(b *bytes.Buffer) { _ = writeHello(b, 0, ProtocolMax, true) })
	seed(func(b *bytes.Buffer) {
		frame, _ := CodecV2{}.AppendBatch(nil, "", 0, []est.Report{rep})
		b.Write(frame)
	})
	seed(func(b *bytes.Buffer) {
		_ = writeHello(b, 0, ProtocolMax, false)
		frame, _ := CodecV2{}.AppendBatch(nil, est.DefaultName, 1, []est.Report{rep, rep})
		b.Write(frame)
	})
	seed(func(b *bytes.Buffer) {
		b.WriteByte(frameCBatch)
		u32(b, 0) // default route
		u64(b, 0) // unsequenced
		u32(b, 0) // zero reports
		u32(b, 0) // zero dims
		u32(b, 0) // zero values
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewRegistryServer(fuzzRegistry())
		srv.Logf = func(string, ...any) {}
		srv.OnCheckpoint = func() error { return nil }

		client, server := net.Pipe()
		deadline := time.Now().Add(5 * time.Second)
		_ = client.SetDeadline(deadline)
		_ = server.SetDeadline(deadline)

		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.serveConn(server)
		}()
		go func() {
			_, _ = io.Copy(io.Discard, client)
		}()

		_, _ = client.Write(data)
		_ = client.Close()
		<-done
		_ = server.Close()
	})
}
