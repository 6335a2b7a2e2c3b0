// Package handler is a framedrain fixture: a handler that replies
// before draining the frame body is flagged, the drain-then-reject
// shape and client-shaped code are not.
package handler

import (
	"bufio"
	"encoding/binary"
	"io"
)

const ackErr = 0xFF

// Reject path writes the status with body bytes still unread — the
// read that follows the reply is flagged.
func serveBad(br *bufio.Reader, bw *bufio.Writer, ok bool) error {
	var n [4]byte
	if _, err := io.ReadFull(br, n[:]); err != nil {
		return err
	}
	if !ok {
		if err := bw.WriteByte(ackErr); err != nil {
			return err
		}
	}
	_, err := io.CopyN(io.Discard, br, int64(binary.BigEndian.Uint32(n[:]))) // want "frame body read after a reply write"
	return err
}

// Drain first, then answer — clean.
func serveGood(br *bufio.Reader, bw *bufio.Writer, ok bool) error {
	var n [4]byte
	if _, err := io.ReadFull(br, n[:]); err != nil {
		return err
	}
	if _, err := io.CopyN(io.Discard, br, int64(binary.BigEndian.Uint32(n[:]))); err != nil {
		return err
	}
	status := byte(0)
	if !ok {
		status = ackErr
	}
	return bw.WriteByte(status)
}

// Distinct switch arms are alternatives, not a sequence: a write in an
// earlier case does not poison a read in a later one — clean.
func serveSwitch(br *bufio.Reader, bw *bufio.Writer, ft byte) error {
	switch ft {
	case 1:
		return bw.WriteByte(0)
	case 2:
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return err
		}
		return bw.WriteByte(0)
	}
	return nil
}

// Client-shaped code reads the reply after writing the request — its
// endpoints live in receiver fields, out of framedrain's scope.
type client struct {
	br *bufio.Reader
	bw *bufio.Writer
}

func (c *client) exchange(p []byte) (byte, error) {
	if _, err := c.bw.Write(p); err != nil {
		return 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	return c.br.ReadByte()
}

// A closure over a handler's endpoint hides its reads and writes from
// the ordering walk, so the literal itself is flagged.
func serveClosure(br *bufio.Reader, bw *bufio.Writer) error {
	var n [4]byte
	if _, err := io.ReadFull(br, n[:]); err != nil {
		return err
	}
	flush := func() error { return bw.Flush() } // want "func literal touches the frame endpoint bw"
	count := func() int { return int(binary.BigEndian.Uint32(n[:])) }
	if _, err := io.CopyN(io.Discard, br, int64(count())); err != nil {
		return err
	}
	return flush()
}
