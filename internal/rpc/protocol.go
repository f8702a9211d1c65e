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
// connection at a time; a client keeps a connection per call in flight.
//
// Every message is built with its length prefix already in the buffer
// (newFrame, sealFrame) and leaves in one write. The two messages that carry
// file data skip the message buffer, each on the wire exactly the var-opaque
// encoding it always was. An opWrite request's head is [length|opcode|fd|n]
// and the n payload bytes plus XDR pad follow straight from the caller's
// slice as one vectored write (sendFrame). An opRead reply is
// [length|status|eof|n] with the n bytes and pad behind it: the node reads
// the file into that frame (connState.readReply) or, for a file that sends
// its own bytes to a TCP connection (vfs.SendRange: sendfile(2) in osfs),
// writes the head and has the file send the range and the pad behind it
// (Server.sendRead), and the client takes the head in one conn read and the
// bytes in the next, into the slice its caller wants filled (readReply). A
// write's payload is copied once per side; a read's once on the client, and
// on the node once, or not at all when the file sends it.
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

// frameChunk is the most memory a length prefix can claim before any of its
// payload has arrived.
const frameChunk = 64 << 10

// readFrame receives one length-prefixed payload (the prefix is consumed,
// not returned). The payload lands in buf when buf has the capacity and in
// a fresh buffer otherwise; either way the returned slice is only as long
// as this payload, so a reused buffer never shows a previous one's bytes.
// A fresh buffer starts at one chunk and doubles only as the payload
// arrives, so four bytes of prefix cannot make a node allocate MaxPayload.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxPayload {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, n)
	}
	if n > cap(buf) {
		buf = make([]byte, 0, min(n, frameChunk))
	}
	for got := 0; got < n; {
		if got == cap(buf) {
			grown := make([]byte, got, min(n, 2*got))
			copy(grown, buf[:got])
			buf = grown
		}
		m, err := io.ReadFull(r, buf[got:min(n, cap(buf))])
		if got += m; err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf[:n], nil
}

// readReplyHead is the fixed head of an OK opRead reply: the length prefix,
// then status, eof and the data's var-opaque length word.
const readReplyHead = frameHeader + 12

// maxReadErrorReply bounds the error reply a read call accepts: the message
// is an error string, and a prefix must not be able to ask for more memory
// than one could honestly need.
const maxReadErrorReply = 1 << 16

// readReply receives the response to one call. With into empty that is
// readFrame. A read passes the slice its caller wants filled, and an OK
// reply's n data bytes go from the socket straight into into[:n]; the payload
// returned is then only [status|eof|n]. The head arrives in one conn read and
// the data in the next, so a reply costs what readFrame's prefix-then-payload
// does; an error reply may end right behind its status word and the string's
// length, so no more than that can be waited for before looking. received
// counts every byte taken off the wire, head, data and pad.
func readReply(r io.Reader, into []byte) (payload []byte, received int, err error) {
	if len(into) == 0 {
		payload, err = readFrame(r, nil)
		return payload, frameHeader + len(payload), err
	}
	head := make([]byte, readReplyHead)
	got, err := io.ReadAtLeast(r, head, frameHeader+4)
	if err != nil {
		return nil, 0, err
	}
	prefix := binary.BigEndian.Uint32(head)
	if binary.BigEndian.Uint32(head[frameHeader:]) != 0 {
		// An error reply is read whole, the way readFrame would have.
		if prefix > maxReadErrorReply || prefix < uint32(got-frameHeader) {
			return nil, 0, fmt.Errorf("%w: %d-byte error reply to a read", ErrProtocol, prefix)
		}
		payload = make([]byte, prefix)
		err = readRest(r, payload[copy(payload, head[frameHeader:got]):])
		return payload, frameHeader + len(payload), err
	}
	if err := readRest(r, head[got:]); err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(head[frameHeader+8:])
	if n > uint32(len(into)) || prefix != uint32(readReplyHead-frameHeader+xdrPadded(int(n))) {
		return nil, 0, fmt.Errorf("%w: read reply of %d bytes in a %d-byte frame, %d asked for",
			ErrProtocol, n, prefix, len(into))
	}
	if padded := xdrPadded(int(n)); padded == int(n) {
		err = readRest(r, into[:n])
	} else {
		// Data that ends off a word boundary has its pad behind it, and a
		// third conn read just for that would make the reply cost more than
		// it used to: take both at once and copy. Frames never come this way.
		tail := make([]byte, padded)
		err = readRest(r, tail)
		copy(into, tail[:n])
	}
	return head[frameHeader:], frameHeader + int(prefix), err
}

// readRest is io.ReadFull for the inside of a frame, where running out of
// bytes is never a clean end of stream.
func readRest(r io.Reader, p []byte) error {
	_, err := io.ReadFull(r, p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
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
