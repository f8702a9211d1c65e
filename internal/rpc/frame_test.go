package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/faultfs"
	"repro/internal/metrics"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// varOpaqueWriteFrame is an opWrite request the way it was encoded before
// the payload stopped being copied: length prefix, then opcode, fd and the
// data as one XDR var-opaque, all in one buffer. It is the wire-format
// reference for the vectored send.
func varOpaqueWriteFrame(fd uint32, data []byte) []byte {
	w := xdr.NewWriter(16 + len(data))
	w.Uint32(opWrite)
	w.Uint32(fd)
	w.VarOpaque(data)
	frame := binary.BigEndian.AppendUint32(nil, uint32(w.Len()))
	return append(frame, w.Bytes()...)
}

// TestWriteWireBytesUnchanged captures what remoteFile.Write puts on a
// net.Pipe (not a kernel socket, so the vectored send runs as sequential
// writes) and requires it byte-for-byte equal to the var-opaque encoding:
// every pad length, an empty write (nothing at all), and a write that
// crosses the MaxPayload/4 chunk boundary (two frames).
func TestWriteWireBytesUnchanged(t *testing.T) {
	const fd, chunk = 7, MaxPayload / 4
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 1021, chunk, chunk + 5} {
		data := make([]byte, n)
		rng.Read(data)
		var want []byte
		for off := 0; off < n; off += chunk {
			want = append(want, varOpaqueWriteFrame(fd, data[off:min(off+chunk, n)])...)
		}

		clientEnd, serverEnd := net.Pipe()
		var wire bytes.Buffer
		done := make(chan error, 1)
		go func() { // a node that records what arrives and acknowledges every write
			in := io.TeeReader(serverEnd, &wire)
			for {
				payload, err := readFrame(in, nil)
				if err != nil {
					done <- err
					return
				}
				resp := respondOK()
				resp.Uint32(binary.BigEndian.Uint32(payload[8:]))
				if _, err := serverEnd.Write(sealFrame(resp, 0)); err != nil {
					done <- err
					return
				}
			}
		}()
		c := NewClient(clientEnd)
		f := &remoteFile{c: c, fd: fd}
		if got, err := f.Write(data); err != nil || got != n {
			t.Fatalf("n=%d: wrote %d, %v", n, got, err)
		}
		c.Close()
		if err := <-done; err != io.EOF {
			t.Fatalf("n=%d: recording node stopped with %v, want a clean EOF", n, err)
		}
		serverEnd.Close()
		if !bytes.Equal(wire.Bytes(), want) {
			t.Errorf("n=%d: %d bytes on the wire differ from the %d-byte var-opaque encoding",
				n, wire.Len(), len(want))
		}
	}
}

// relaxedPolicy is faultPolicy with a call deadline that large writes under
// the race detector fit in.
func relaxedPolicy() RetryPolicy {
	pol := faultPolicy()
	pol.CallTimeout = 5 * time.Second
	return pol
}

// TestWriteThroughWrappedConn sends writes of every pad length through a
// faultfs-wrapped connection (where net.Buffers cannot use writev) with a
// slow rule on every write call, so each piece goes out on its own, and
// reads them back.
func TestWriteThroughWrappedConn(t *testing.T) {
	in := faultfs.MustNew(1, faultfs.Rule{Kind: faultfs.KindSlow, Op: "conn.write", Every: 1, Delay: time.Microsecond})
	store := vfs.NewMemFS()
	c := startFaultNode(t, store, in, relaxedPolicy())
	rng := rand.New(rand.NewSource(2))
	var want []byte
	f, err := c.Create("/w")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 4, 250_001, 0, 7} {
		data := make([]byte, n)
		rng.Read(data)
		if got, err := f.Write(data); err != nil || got != n {
			t.Fatalf("write of %d: %d, %v", n, got, err)
		}
		want = append(want, data...)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := vfs.ReadFile(store, "/w"); err != nil || !bytes.Equal(got, want) {
		t.Errorf("node holds %d bytes (%v), want the %d written", len(got), err, len(want))
	}
}

// TestWriteTornInBodyIsRetriedOnce tears the connection halfway through the
// payload piece of a vectored write (conn.write #2; #1 is the head). The
// node never saw a whole frame, so sent=false: the non-idempotent write is
// retried, and applied exactly once.
func TestWriteTornInBodyIsRetriedOnce(t *testing.T) {
	in := faultfs.MustNew(1, faultfs.Rule{Kind: faultfs.KindPartial, Op: "conn.write", Nth: 2})
	in.SetEnabled(false)
	store := vfs.NewMemFS()
	c := startFaultNode(t, store, in, relaxedPolicy())
	creg := metrics.NewRegistry()
	c.SetMetrics(creg)
	f, err := c.Create("/torn")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("payload-"), 4096)
	in.SetEnabled(true)
	n, err := f.Write(data)
	in.SetEnabled(false)
	if err != nil || n != len(data) {
		t.Fatalf("write torn mid-body: %d, %v (should have been retried to success)", n, err)
	}
	cs := creg.Snapshot().Counters
	if cs["rpc.client.retries"] != 1 || cs["rpc.client.retries_suppressed"] != 0 {
		t.Errorf("retries = %d, suppressed = %d, want 1 and 0", cs["rpc.client.retries"], cs["rpc.client.retries_suppressed"])
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := vfs.ReadFile(store, "/torn"); !bytes.Equal(got, data) {
		t.Errorf("node holds %d bytes, want the %d written exactly once", len(got), len(data))
	}
}

// TestRequestBufferReuseShowsNoStaleBytes alternates large and small
// requests on one connection: each request is parsed out of the same reused
// buffer, and none may see bytes of an earlier, longer one. A request above
// maxKeptRequestBuf drops the buffer, and the next one starts clean too.
func TestRequestBufferReuseShowsNoStaleBytes(t *testing.T) {
	store := vfs.NewMemFS()
	addr, _, _ := startPoolNode(t, store)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, n := range []int{300_000, 5, maxKeptRequestBuf + 4096, 3, 70_000, 1} {
		name := string(rune('a'+i)) + "-file"
		data := bytes.Repeat([]byte{byte(0xA0 + i)}, n)
		if err := vfs.WriteFile(c, "/"+name, data); err != nil {
			t.Fatal(err)
		}
		got, err := vfs.ReadFile(store, "/"+name)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("request %d: node holds %d bytes under %q (%v), want %d of %#x",
				i, len(got), name, err, n, data[0])
		}
	}
	// The names went through the same buffer: exactly these exist.
	entries, err := c.ReadDir("/")
	if err != nil || len(entries) != 6 {
		t.Fatalf("ReadDir: %d entries, %v, want 6", len(entries), err)
	}
	for i, e := range entries {
		if want := string(rune('a'+i)) + "-file"; e.Name != want {
			t.Errorf("entry %d is %q, want %q", i, e.Name, want)
		}
	}
}

// sinkFS is a MemFS whose created files swallow writes, so a write's own
// cost is all that the allocation tests below see.
type sinkFS struct{ *vfs.MemFS }

type sinkFile struct{ vfs.File }

func (s sinkFS) Create(name string) (vfs.File, error) {
	f, err := s.MemFS.Create(name)
	return sinkFile{f}, err
}

func (sinkFile) Write(p []byte) (int, error) { return len(p), nil }

// heapPerRun is testing.AllocsPerRun's companion: heap bytes allocated per
// call of fn, process-wide.
func heapPerRun(runs int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWriteAllocsIndependentOfPayload pins the write path's copies: a 1 KiB
// and a 512 KiB remoteFile.Write — client encode, loopback TCP, the node's
// read and dispatch, the reply — cost the same number of allocations, and
// the large one allocates a small fraction of its payload in bytes, where a
// copy on either side would allocate all of it.
func TestWriteAllocsIndependentOfPayload(t *testing.T) {
	addr, _, _ := startPoolNode(t, sinkFS{vfs.NewMemFS()})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Create("/sink")
	if err != nil {
		t.Fatal(err)
	}
	small, large := make([]byte, 1<<10), make([]byte, 512<<10)
	write := func(p []byte) func() {
		return func() {
			if n, err := f.Write(p); err != nil || n != len(p) {
				t.Fatalf("write: %d, %v", n, err)
			}
		}
	}
	write(large)() // size the connection's request buffer
	allocsSmall := testing.AllocsPerRun(50, write(small))
	allocsLarge := testing.AllocsPerRun(50, write(large))
	if allocsLarge > allocsSmall+1 {
		t.Errorf("%.1f allocations per 512 KiB write, %.1f per 1 KiB write: payload-dependent", allocsLarge, allocsSmall)
	}
	if per := heapPerRun(50, write(large)); per > float64(len(large))/16 {
		t.Errorf("%.0f heap bytes per 512 KiB write: the payload is being copied", per)
	}
}

// TestDispatchWriteAllocsIndependentOfPayload is the node half alone: the
// opWrite handler hands the file a slice of the request buffer.
func TestDispatchWriteAllocsIndependentOfPayload(t *testing.T) {
	srv := NewServer(sinkFS{vfs.NewMemFS()}, nil)
	srv.SetMetrics(metrics.NewRegistry())
	open := xdr.NewWriter(32)
	open.Uint32(opCreate)
	open.String("/sink")
	resp := xdr.NewReader(srv.dispatch(&connState{}, open.Bytes())[frameHeader:])
	if err := decodeStatus(resp); err != nil {
		t.Fatal(err)
	}
	fd := resp.Uint32()
	dispatchWrite := func(n int) func() {
		payload := varOpaqueWriteFrame(fd, make([]byte, n))[frameHeader:]
		return func() {
			out := srv.dispatch(&connState{}, payload)
			if binary.BigEndian.Uint32(out[frameHeader:]) != 0 || binary.BigEndian.Uint32(out[frameHeader+4:]) != uint32(n) {
				t.Fatalf("opWrite of %d bytes answered % x", n, out)
			}
		}
	}
	small := testing.AllocsPerRun(100, dispatchWrite(1<<10))
	large := testing.AllocsPerRun(100, dispatchWrite(512<<10))
	if small != large {
		t.Errorf("dispatch allocates %.1f times for a 1 KiB write and %.1f for 512 KiB", small, large)
	}
	if per := heapPerRun(100, dispatchWrite(512<<10)); per > 4096 {
		t.Errorf("dispatch allocates %.0f heap bytes per 512 KiB write", per)
	}
}

// TestHostilePrefixAllocatesAsBytesArrive: a length prefix is a claim, not
// a payload. Four bytes asking for 64 MiB and then hanging up — what any
// peer can send a node before it has identified itself — must cost the node
// one chunk, not the 64 MiB claimed; a payload that does arrive is read
// whole, through the doubling, however the reader splits it.
func TestHostilePrefixAllocatesAsBytesArrive(t *testing.T) {
	var err error
	hostile := []byte{0x04, 0x00, 0x00, 0x00}
	if per := heapPerRun(1, func() { _, err = readFrame(bytes.NewReader(hostile), nil) }); per >= 1<<20 {
		t.Errorf("a %d-byte hostile prefix allocated %.0f bytes", len(hostile), per)
	}
	if err != io.EOF {
		t.Errorf("prefix then hang-up = %v, want io.EOF", err)
	}
	for _, n := range []int{0, 1, frameChunk - 1, frameChunk, frameChunk + 1, 5*frameChunk + 3} {
		data := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(data)
		wire := append(binary.BigEndian.AppendUint32(nil, uint32(n)), data...)
		got, err := readFrame(iotest.HalfReader(bytes.NewReader(wire)), nil)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("%d-byte payload: %d bytes back, %v", n, len(got), err)
		}
		want := io.ErrUnexpectedEOF
		if n == 1 {
			want = io.EOF // none of the payload arrived, as with the hostile prefix
		}
		if _, err := readFrame(bytes.NewReader(wire[:len(wire)-1]), nil); n > 0 && err != want {
			t.Errorf("%d-byte payload cut short by one: %v, want %v", n, err, want)
		}
	}
}

// FuzzReadFrame holds the node's request parser to the rule for bytes from
// outside: whatever a peer sends, readFrame does not panic, allocates in
// proportion to what arrived (one chunk beyond it at most, then doubling),
// and returns either the payload the prefix announced or a typed error:
// ErrProtocol, or the stream ending.
func FuzzReadFrame(f *testing.F) {
	huge := binary.BigEndian.AppendUint32(nil, MaxPayload)
	for _, seed := range [][]byte{
		{}, {0, 0}, {0, 0, 0, 0}, {0, 0, 0, 3, 'a', 'b', 'c'}, {0, 0, 0, 5, 'a'},
		{0x04, 0, 0, 0}, {0xff, 0xff, 0xff, 0xff}, append(huge, 1, 2, 3, 4),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		var payload []byte
		var err error
		got := heapPerRun(1, func() { payload, err = readFrame(bytes.NewReader(input), nil) })
		if limit := float64(4*len(input) + 1<<20); got > limit {
			t.Fatalf("a %d-byte input made readFrame allocate %.0f bytes, limit %.0f", len(input), got, limit)
		}
		switch {
		case err == nil:
			n := binary.BigEndian.Uint32(input)
			if uint32(len(payload)) != n || !bytes.Equal(payload, input[frameHeader:frameHeader+len(payload)]) {
				t.Fatalf("a %d-byte input announcing %d bytes returned %d others", len(input), n, len(payload))
			}
		case errors.Is(err, ErrProtocol), err == io.EOF, err == io.ErrUnexpectedEOF:
		default:
			t.Fatalf("a %d-byte input produced an untyped error: %v", len(input), err)
		}
	})
}
