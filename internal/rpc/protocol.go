// Package rpc exposes a vfs.FS over a TCP connection with a compact
// length-prefixed binary protocol, so ADA's backends can run as real
// storage-node processes (cmd/adanode) instead of in-process stores.
//
// Wire format, both directions:
//
//	uint32  payload length (big-endian, excluding itself)
//	payload XDR-encoded body
//
// A request body is: uint32 opcode, then opcode-specific XDR fields. A
// response body is: uint32 status (0 = OK, 1 = error), then either an error
// string or opcode-specific fields. One request is in flight per
// connection at a time; clients serialize with a mutex.
//
// Every message is built with its length prefix already in the buffer
// (newFrame, sealFrame) and leaves in one write. An opWrite request is the
// exception that proves the rule: its head is [length|opcode|fd|n] and the
// n payload bytes plus XDR pad follow straight from the caller's slice as
// one vectored write (sendFrame) — on the wire exactly the var-opaque
// encoding, without the payload ever being copied into a message buffer.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"

	"repro/internal/vfs"
	"repro/internal/xdr"
)

// Opcodes.
const (
	opCreate uint32 = iota + 1
	opOpen
	opRead
	opWrite
	opClose
	opStat
	opReadDir
	opMkdirAll
	opRemove
	opSize
	opRename
	opIdent    // declare the connection's tenant for per-tenant accounting
	opTableGet // fetch the node's cluster placement table (version + bytes)
	opTablePut // install a cluster placement table if not stale
	opWatch    // long-poll: block until a file's content differs from a CRC
)

// MaxPayload bounds a single message (catches corrupt length prefixes).
const MaxPayload = 64 << 20

// ErrProtocol is returned for malformed frames.
var ErrProtocol = errors.New("rpc: protocol error")

// frameHeader is the size of the length prefix.
const frameHeader = 4

// newFrame starts a message with the length prefix reserved, so the whole
// message is one contiguous buffer; sealFrame fills the prefix in.
func newFrame(capacity int) *xdr.Writer {
	w := xdr.NewWriter(capacity)
	w.Uint32(0)
	return w
}

// sealFrame completes a message started by newFrame and returns its bytes.
// trailing is the number of payload bytes the caller sends after them
// (sendFrame's body and pad), which the length prefix must cover.
func sealFrame(w *xdr.Writer, trailing int) []byte {
	raw := w.Bytes()
	binary.BigEndian.PutUint32(raw, uint32(len(raw)-frameHeader+trailing))
	return raw
}

// xdrPadded is n rounded up to XDR's four-byte alignment.
func xdrPadded(n int) int { return (n + 3) &^ 3 }

var zeroPad [3]byte

// sendFrame writes one sealed message: head and, when body is non-empty,
// body and its XDR pad behind it, all in a single vectored write. On a
// transport that is not a kernel socket (a test pipe, a fault-injection
// wrapper) net.Buffers degrades to one Write per piece, in order. Any error
// means the frame did not go out whole.
func sendFrame(w io.Writer, head, body []byte) error {
	if len(body) == 0 {
		_, err := w.Write(head)
		return err
	}
	bufs := net.Buffers{head, body}
	if pad := xdrPadded(len(body)) - len(body); pad > 0 {
		bufs = append(bufs, zeroPad[:pad])
	}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame receives one length-prefixed payload (the prefix is consumed,
// not returned). The payload lands in buf when buf has the capacity and in
// a fresh buffer otherwise; either way the returned slice is only as long
// as this payload, so a reused buffer never shows a previous one's bytes.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxPayload {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, n)
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// respondErr encodes an error response (an unsealed frame, like every
// dispatch result; the connection loop seals it).
func respondErr(err error) []byte {
	w := newFrame(64)
	w.Uint32(1)
	w.String(err.Error())
	return w.Bytes()
}

// respondOK starts an OK response; the caller appends fields.
func respondOK() *xdr.Writer {
	w := newFrame(256)
	w.Uint32(0)
	return w
}

// decodeStatus consumes the status word, converting an error response into
// a Go error.
func decodeStatus(r *xdr.Reader) error {
	status := r.Uint32()
	if err := r.Err(); err != nil {
		return err
	}
	if status == 0 {
		return nil
	}
	msg := r.String()
	if err := r.Err(); err != nil {
		return err
	}
	return remoteError(msg)
}

// remoteError reconstructs the vfs sentinel errors from the wire so that
// errors.Is works across the connection.
func remoteError(msg string) error {
	for _, sentinel := range []error{vfs.ErrNotExist, vfs.ErrExist, vfs.ErrIsDir, vfs.ErrNotDir, vfs.ErrCorrupted} {
		if strings.Contains(msg, sentinel.Error()) {
			return fmt.Errorf("%w (remote: %s)", sentinel, msg)
		}
	}
	return errors.New(msg)
}
