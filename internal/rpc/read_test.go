package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/osfs"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// frameBytes is one stored protein frame of the end-to-end benchmark: 18 496
// atoms behind a 52-byte header.
const frameBytes = 222_004

// varOpaqueReadReply is an OK opRead reply the way it was encoded before the
// node read files straight into it: respondOK, the eof word, the data as one
// XDR var-opaque, sealed. It is the wire-format reference for both halves of
// the copy-free read.
func varOpaqueReadReply(eof bool, data []byte) []byte {
	w := respondOK()
	w.Uint32(boolWord(eof))
	w.VarOpaque(data)
	return append([]byte(nil), sealFrame(w, 0)...)
}

// readRequest is an opRead request payload (no length prefix).
func readRequest(fd uint32, off int64, n int) []byte {
	w := xdr.NewWriter(24)
	w.Uint32(opRead)
	w.Uint32(fd)
	w.Int64(off)
	w.Uint32(uint32(n))
	return w.Bytes()
}

// TestReadWireBytesUnchanged holds both ends of a read to the var-opaque
// encoding. The node's reply, sealed the way handleConn seals it, is byte for
// byte the reference — every pad length, a read straddling EOF, one at EOF,
// an empty one — and decodes through xdr.Reader as it always did; the dirty
// reply buffer a longer read left behind never shows. And a reply built by
// hand the old way, from a node that knows nothing of this change, lands in
// the caller's slice through the new client.
func TestReadWireBytesUnchanged(t *testing.T) {
	content := make([]byte, 1000)
	rand.New(rand.NewSource(3)).Read(content)
	reads := []struct{ off, n int }{
		{0, 1000}, {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {0, 8},
		{990, 20}, {997, 3}, {999, 4}, {1000, 10}, {2000, 4}, {10, 0},
	}
	want := func(off, n int) (data []byte, eof bool) {
		if off >= len(content) {
			return nil, true
		}
		end := min(off+n, len(content))
		return content[off:end], end-off < n
	}

	t.Run("node", func(t *testing.T) {
		store := vfs.NewMemFS()
		if err := vfs.WriteFile(store, "/f", content); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(store, nil)
		srv.SetMetrics(metrics.NewRegistry())
		open := xdr.NewWriter(32)
		open.Uint32(opOpen)
		open.String("/f")
		cs := &connState{}
		r := xdr.NewReader(srv.dispatch(cs, open.Bytes())[frameHeader:])
		if err := decodeStatus(r); err != nil {
			t.Fatal(err)
		}
		fd := r.Uint32()
		for _, rd := range reads {
			resp := srv.dispatch(cs, readRequest(fd, int64(rd.off), rd.n))
			binary.BigEndian.PutUint32(resp, uint32(len(resp)-frameHeader))
			data, eof := want(rd.off, rd.n)
			if ref := varOpaqueReadReply(eof, data); !bytes.Equal(resp, ref) {
				t.Errorf("read of %d at %d: the reply's %d bytes differ from the %d-byte var-opaque encoding",
					rd.n, rd.off, len(resp), len(ref))
			}
			r := xdr.NewReader(resp[frameHeader:])
			if err := decodeStatus(r); err != nil {
				t.Fatal(err)
			}
			gotEOF := r.Uint32() != 0
			got := r.VarOpaque()
			if r.Err() != nil || r.Remaining() != 0 || gotEOF != eof || !bytes.Equal(got, data) {
				t.Errorf("read of %d at %d decodes to %d bytes, eof %v (%v), want %d, eof %v",
					rd.n, rd.off, len(got), gotEOF, r.Err(), len(data), eof)
			}
		}
	})

	t.Run("client", func(t *testing.T) {
		clientEnd, serverEnd := net.Pipe()
		defer serverEnd.Close()
		go func() { // a node that answers reads the old way and nothing else
			for {
				payload, err := readFrame(serverEnd, nil)
				if err != nil {
					return
				}
				r := xdr.NewReader(payload)
				r.Uint32() // opRead
				r.Uint32() // fd
				off, n := r.Int64(), r.Uint32()
				data, eof := want(int(off), int(n))
				if _, err := serverEnd.Write(varOpaqueReadReply(eof, data)); err != nil {
					return
				}
			}
		}()
		c := NewClient(clientEnd)
		defer c.Close()
		f := &remoteFile{c: c, fd: 7}
		for _, rd := range reads {
			p := bytes.Repeat([]byte{0xEE}, rd.n+5)
			n, err := f.ReadAt(p[:rd.n], int64(rd.off))
			data, eof := want(rd.off, rd.n)
			if eof = eof && rd.n > 0; n != len(data) || (err == io.EOF) != eof || (err != nil && err != io.EOF) {
				t.Errorf("read of %d at %d: %d, %v, want %d, eof %v", rd.n, rd.off, n, err, len(data), eof)
			}
			if !bytes.Equal(p[:n], data) || !bytes.Equal(p[rd.n:], []byte{0xEE, 0xEE, 0xEE, 0xEE, 0xEE}) {
				t.Errorf("read of %d at %d: wrong bytes, or bytes written past the caller's slice", rd.n, rd.off)
			}
		}
	})
}

// TestReadReplyBufferReuse: a connection's reads share one reply buffer on
// the node, and a short read behind a long one returns exactly its own bytes.
// A read straddling the end of the file comes back short with io.EOF, and one
// at or past the end as 0, io.EOF.
func TestReadReplyBufferReuse(t *testing.T) {
	store := vfs.NewMemFS()
	addr, _, _ := startPoolNode(t, store)
	content := make([]byte, 1<<20+100)
	rand.New(rand.NewSource(4)).Read(content)
	if err := vfs.WriteFile(store, "/f", content); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, rd := range []struct {
		off, n, want int
		eof          bool
	}{
		{0, 1 << 20, 1 << 20, false},              // too large to keep
		{5, 10, 10, false},                        // behind it: exactly these ten
		{100, frameBytes, frameBytes, false},      // sizes the kept buffer
		{7, 10, 10, false},                        // out of the same buffer
		{3, 7, 7, false},                          // with a pad byte that must be zeroed
		{len(content) - 50, 200, 50, true},        // straddles the end
		{len(content) - 3, 8, 3, true},            // straddles it with a pad
		{len(content), 10, 0, true},               // at the end
		{len(content) + 4096, 10, 0, true},        // past it
		{len(content) - 10, 10, 10, false},        // ends exactly at the end: whole, so no EOF is owed
		{0, len(content) + 1, len(content), true}, // the whole file and one byte more
	} {
		p := make([]byte, rd.n)
		n, err := f.ReadAt(p, int64(rd.off))
		if n != rd.want || (err != nil && err != io.EOF) || (rd.eof && err != io.EOF) {
			t.Errorf("ReadAt(%d bytes at %d) = %d, %v; want %d, eof %v", rd.n, rd.off, n, err, rd.want, rd.eof)
			continue
		}
		if !bytes.Equal(p[:n], content[min(rd.off, len(content)):][:n]) {
			t.Errorf("ReadAt(%d bytes at %d) returned the wrong bytes", rd.n, rd.off)
		}
	}
}

// TestRemoteReadAtAllocs pins the read path's copies: one frame-sized ReadAt
// over loopback — client encode, the node's dispatch and file read, the
// reply, the client's receive — allocates under a kibibyte on both sides
// together, where a copy of the frame anywhere would allocate all of it.
func TestRemoteReadAtAllocs(t *testing.T) {
	store := vfs.NewMemFS()
	addr, _, _ := startPoolNode(t, store)
	if err := vfs.WriteFile(store, "/frames", make([]byte, 4*frameBytes)); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open("/frames")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := make([]byte, frameBytes)
	i := 0
	read := func() {
		if n, err := f.ReadAt(p, int64(i%4)*frameBytes); n != len(p) || (err != nil && err != io.EOF) {
			t.Fatalf("read: %d, %v", n, err)
		}
		i++
	}
	read() // size the connection's reply buffer
	if per := heapPerRun(50, read); per >= 1024 {
		t.Errorf("%.0f heap bytes per %d-byte ReadAt: the frame is being copied", per, frameBytes)
	}
}

// TestReadFileLargerThanOneFrameLimit: a file past the node's per-read limit
// (MaxPayload/2) reads back whole, in chunks as it was written in chunks.
func TestReadFileLargerThanOneFrameLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 40 MiB twice")
	}
	store := vfs.NewMemFS()
	addr, _, _ := startPoolNode(t, store)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, 40<<20+3) // not a whole number of chunks, nor of words
	rand.New(rand.NewSource(5)).Read(big)
	if err := vfs.WriteFile(c, "/big", big); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(c, "/big")
	if err != nil {
		t.Fatalf("ReadFile of %d bytes: %v", len(big), err)
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("ReadFile returned %d bytes that differ from the %d written", len(got), len(big))
	}
	// A chunked read that runs off the end reports the bytes it has, then EOF.
	f, err := c.Open("/big")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := make([]byte, len(big)-100+ioChunk)
	n, err := f.ReadAt(p, 100)
	if n != len(big)-100 || err != io.EOF || !bytes.Equal(p[:n], big[100:]) {
		t.Errorf("ReadAt past the end: %d, %v; want %d, io.EOF", n, err, len(big)-100)
	}
}

// scriptedConn is a connection whose peer has already said everything it
// will: writes vanish, reads serve the script and then end.
type scriptedConn struct {
	net.Conn // nil: any method not listed below is a bug in the test
	script   *bytes.Reader
}

func (c scriptedConn) Read(p []byte) (int, error)       { return c.script.Read(p) }
func (c scriptedConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c scriptedConn) Close() error                     { return nil }
func (c scriptedConn) SetDeadline(time.Time) error      { return nil }
func (c scriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (c scriptedConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzReadReply holds the client's reply parser to the rule for bytes from
// outside: whatever a node sends back to a read, the call does not panic,
// writes nothing past the caller's slice, allocates in proportion to what
// arrived (an error reply's prefix may claim maxReadErrorReply before it is
// caught short), and returns the data, the node's own error, or a typed one:
// ErrProtocol, or the stream ending early.
func FuzzReadReply(f *testing.F) {
	const asked = 16
	ok := varOpaqueReadReply(false, []byte("sixteen bytes ok"))
	tooMany := varOpaqueReadReply(false, make([]byte, asked+4))
	wrongPrefix := append([]byte(nil), ok...)
	binary.BigEndian.PutUint32(wrongPrefix, 12+asked+4)
	errorReply := func(msg string) []byte { // sealed the way handleConn seals it
		b := respondErr(errors.New(msg))
		binary.BigEndian.PutUint32(b, uint32(len(b)-frameHeader))
		return b
	}
	emptyError := errorReply("")
	hugeError := append([]byte(nil), emptyError[:8]...)
	binary.BigEndian.PutUint32(hugeError, MaxPayload)
	for _, seed := range [][]byte{
		ok, varOpaqueReadReply(true, []byte("short")), varOpaqueReadReply(true, nil),
		tooMany, wrongPrefix, emptyError, hugeError, errorReply(vfs.ErrNotExist.Error()),
		ok[:6], ok[:10], ok[:readReplyHead+3], {},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		backing := bytes.Repeat([]byte{0xEE}, asked+8)
		p := backing[:asked]
		c := NewClient(scriptedConn{script: bytes.NewReader(input)})
		c.SetMetrics(nil)
		file := &remoteFile{c: c, fd: 1}
		var n int
		var err error
		got := heapPerRun(1, func() { n, err = file.ReadAt(p, 0) })
		if !bytes.Equal(backing[asked:], bytes.Repeat([]byte{0xEE}, 8)) {
			t.Fatal("bytes written past the caller's slice")
		}
		if limit := float64(64*len(input) + 2*maxReadErrorReply); got > limit {
			t.Fatalf("a %d-byte reply made the read allocate %.0f bytes, limit %.0f", len(input), got, limit)
		}
		relayed := len(input) >= 8 && binary.BigEndian.Uint32(input[frameHeader:]) != 0
		switch {
		case err == nil || err == io.EOF:
			if relayed || n < 0 || n > asked || (err == nil && n != asked) {
				t.Fatalf("ReadAt = %d, %v out of a %d-byte reply (error reply: %v)", n, err, len(input), relayed)
			}
			if !bytes.Equal(p[:n], input[readReplyHead:][:n]) {
				t.Fatal("ReadAt returned bytes the reply does not hold")
			}
		case errors.Is(err, ErrProtocol), errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, xdr.ErrShortBuffer):
		case len(input) == 0 && errors.Is(err, io.EOF): // the node hung up without a word
		case relayed: // the node's own error, whatever it says
		default:
			t.Fatalf("a %d-byte reply produced an untyped error: %v", len(input), err)
		}
	})
}

// BenchmarkRemoteReadAt is one cold playback frame's trip over the wire:
// frame-sized ReadAts of a file on a real directory, through Dial and a node
// on loopback.
func BenchmarkRemoteReadAt(b *testing.B) {
	store, err := osfs.New(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	const frames = 64
	if err := vfs.WriteFile(store, "/frames", make([]byte, frames*frameBytes)); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(store, nil)
	srv.SetMetrics(metrics.NewRegistry())
	go srv.Serve(ln)
	defer func() { srv.Close(); ln.Close() }()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open("/frames")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	p := make([]byte, frameBytes)
	b.SetBytes(frameBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := f.ReadAt(p, int64(i%frames)*frameBytes); n != len(p) || (err != nil && err != io.EOF) {
			b.Fatalf("read: %d, %v", n, err)
		}
	}
}
