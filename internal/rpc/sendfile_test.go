package rpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/osfs"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// A node over osfs answers a read on a TCP connection by sending the file's
// bytes from the page cache (vfs.SendRange, sendfile(2) on Linux) behind the
// reply head. These tests hold that path to the copy path's wire bytes and
// results.

// copyFS hides its files' send: Open's files embed only vfs.File, so the
// node reads them into the reply, the copy path.
type copyFS struct{ vfs.FS }

func (c copyFS) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return struct{ vfs.File }{f}, nil
}

// sendCountFS forwards its files' send and counts the sends made.
type sendCountFS struct {
	vfs.FS
	sends atomic.Int64
}

func (c *sendCountFS) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &sendCountFile{File: f, fs: c}, nil
}

type sendCountFile struct {
	vfs.File
	fs *sendCountFS
}

func (f *sendCountFile) CanSendRange(w io.Writer) bool { return vfs.CanSendRange(f.File, w) }

func (f *sendCountFile) SendRange(w io.Writer, off, n int64) (int64, error) {
	f.fs.sends.Add(1)
	return vfs.SendRange(f.File, w, off, n)
}

// osfsWithFile is an osfs root holding content at /f.
func osfsWithFile(t *testing.T, content []byte) *osfs.FS {
	t.Helper()
	base, err := osfs.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(base, "/f", content); err != nil {
		t.Fatal(err)
	}
	return base
}

// rawConn dials addr and opens /f on it, returning the connection and fd.
func rawConn(t *testing.T, addr string) (net.Conn, uint32) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	open := request(opOpen)
	open.String("/f")
	r := xdr.NewReader(rawCall(t, conn, sealFrame(open, 0))[frameHeader:])
	if err := decodeStatus(r); err != nil {
		t.Fatal(err)
	}
	return conn, r.Uint32()
}

// rawCall sends one sealed request and returns the whole reply frame, its
// length prefix included.
func rawCall(t *testing.T, conn net.Conn, req []byte) []byte {
	t.Helper()
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestSendfileReadReplyBytes: for a whole file, a range ending at its end,
// one straddling it (eof set), one past it, every pad length and an empty
// read, the node that sends from the file puts on the wire exactly the bytes
// the node that copies does, and those are the var-opaque reference.
func TestSendfileReadReplyBytes(t *testing.T) {
	content := make([]byte, 300_001)
	rand.New(rand.NewSource(7)).Read(content)
	size := len(content)
	base := osfsWithFile(t, content)
	sending := &sendCountFS{FS: base}
	sendAddr, _, _ := startPoolNode(t, sending)
	copyAddr, _, _ := startPoolNode(t, copyFS{base})
	sendConn, sendFD := rawConn(t, sendAddr)
	copyConn, copyFD := rawConn(t, copyAddr)

	reads := []struct{ off, n int }{
		{0, size}, {size - 10, 10}, {size - 10, 20}, {size + 5, 10}, {size, 4},
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {100, 5}, {100, 6}, {100, 7}, {4, 222_004},
		{10, 0},
	}
	for _, rd := range reads {
		got := rawCall(t, sendConn, sealFrame(readRequestFrame(sendFD, rd.off, rd.n), 0))
		want := rawCall(t, copyConn, sealFrame(readRequestFrame(copyFD, rd.off, rd.n), 0))
		if !bytes.Equal(got, want) {
			t.Errorf("read of %d at %d: the sent reply's %d bytes differ from the copied reply's %d",
				rd.n, rd.off, len(got), len(want))
		}
		end := min(max(rd.off, 0)+rd.n, size)
		data := []byte{}
		if rd.off < size {
			data = content[rd.off:end]
		}
		eof := rd.off >= size && rd.n > 0 || end-rd.off < rd.n
		if ref := varOpaqueReadReply(eof, data); !bytes.Equal(got, ref) {
			t.Errorf("read of %d at %d: the reply differs from the var-opaque encoding", rd.n, rd.off)
		}
	}
	// Every read with bytes to send went out through the file's send.
	if n := sending.sends.Load(); n != int64(len(reads)-3) {
		t.Errorf("%d reads sent from the file, want %d", n, len(reads)-3)
	}
}

// readRequestFrame is an opRead request started with its length prefix.
func readRequestFrame(fd uint32, off, n int) *xdr.Writer {
	w := request(opRead)
	w.Uint32(fd)
	w.Int64(int64(off))
	w.Uint32(uint32(n))
	return w
}

// TestSendfileConcurrentReadsOfOneHandle: a client reading one handle at two
// offsets at once does so on two connections, and each read gets its own
// range, sent from the one node-side handle.
func TestSendfileConcurrentReadsOfOneHandle(t *testing.T) {
	content := make([]byte, 1<<20)
	rand.New(rand.NewSource(8)).Read(content)
	sending := &sendCountFS{FS: osfsWithFile(t, content)}
	addr, _, _ := startPoolNode(t, sending)
	c := DialLazy(addr, nil, DefaultRetryPolicy())
	defer c.Close()
	f, err := c.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	for _, off := range []int{0, 500_000} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := make([]byte, 222_004)
			for i := 0; i < 20; i++ {
				if n, err := f.ReadAt(p, int64(off)); n != len(p) || err != nil {
					t.Errorf("read at %d: %d, %v", off, n, err)
					return
				}
				if !bytes.Equal(p, content[off:off+len(p)]) {
					t.Errorf("read at %d returned other bytes than the file's", off)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := sending.sends.Load(); n != 40 {
		t.Errorf("%d reads sent from the file, want 40", n)
	}
}

// shrinkFS's file /f is cut to keep bytes right after the node takes its
// size for the first read (its second Size; the open reply took the first):
// the node has announced more bytes than it can send.
type shrinkFS struct {
	*osfs.FS
	keep  int64
	sizes atomic.Int64
}

func (s *shrinkFS) Open(name string) (vfs.File, error) {
	f, err := s.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &shrinkFile{sendCountFile{File: f, fs: &sendCountFS{}}, s}, nil
}

type shrinkFile struct {
	sendCountFile
	s *shrinkFS
}

func (f *shrinkFile) Size() int64 {
	size := f.File.Size()
	if f.s.sizes.Add(1) == 2 {
		if err := os.Truncate(filepath.Join(f.s.Root(), "f"), f.s.keep); err != nil {
			panic(err)
		}
	}
	return size
}

// TestSendfileFileShrinksUnderRead: a file cut between the size the reply
// head announces and the send fails that reply; the node ends the
// connection, the client retries, and the read returns the short file's
// bytes, never bytes it does not hold.
func TestSendfileFileShrinksUnderRead(t *testing.T) {
	content := make([]byte, 400_000)
	rand.New(rand.NewSource(9)).Read(content)
	const keep = 100_000
	base := osfsWithFile(t, content)
	addr, _, _ := startPoolNode(t, &shrinkFS{FS: base, keep: keep})
	policy := DefaultRetryPolicy()
	policy.CallTimeout = 10 * time.Second
	c := DialLazy(addr, nil, policy)
	reg := metrics.NewRegistry()
	c.SetMetrics(reg)
	defer c.Close()
	f, err := c.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := make([]byte, 300_000)
	start := time.Now()
	n, err := f.ReadAt(p, 50_000)
	// The node ends the connection at once; a node that left it open would
	// leave the client waiting out its call timeout for bytes that never come.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("the read took %v: the broken reply was not ended", d)
	}
	if err != nil && err != io.EOF {
		t.Fatalf("ReadAt: %v", err) // failing is allowed; returning wrong bytes is not
	}
	if n != keep-50_000 || !bytes.Equal(p[:n], content[50_000:keep]) {
		t.Errorf("ReadAt returned %d bytes (%v), want the %d the cut file holds", n, err, keep-50_000)
	}
	if r := reg.Snapshot().Counters["rpc.client.retries"]; r < 1 {
		t.Errorf("rpc.client.retries = %d: the broken reply was not retried", r)
	}
}
