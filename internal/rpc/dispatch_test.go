package rpc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/vfs"
	"repro/internal/xdr"
)

// dispatchNode is a node for driving dispatch directly: a MemFS holding a
// one-byte file /f and a directory /d, a server over it with no metrics,
// and one connection's state with /f open as handle 1.
func dispatchNode(t testing.TB) (*Server, *connState) {
	t.Helper()
	store := vfs.NewMemFS()
	if err := vfs.WriteFile(store, "/f", []byte{7}); err != nil {
		t.Fatal(err)
	}
	if err := store.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, nil)
	srv.SetMetrics(nil)
	cs := &connState{}
	open := request(opOpen)
	open.String("/f")
	if status := binary.BigEndian.Uint32(srv.dispatch(cs, open.Bytes()[frameHeader:])[frameHeader:]); status != 0 {
		t.Fatal("opening /f failed")
	}
	return srv, cs
}

// TestOversizedReadSizedByFile: a 20-byte opRead for MaxPayload/2 bytes of
// a one-byte file allocates what the file can return, not what was asked,
// and answers with that byte and end of file.
func TestOversizedReadSizedByFile(t *testing.T) {
	srv, cs := dispatchNode(t)
	req := readRequest(1, 0, MaxPayload/2)
	var resp []byte
	if got := heapPerRun(4, func() { resp = srv.dispatch(cs, req) }); got >= 1<<20 {
		t.Errorf("a %d-byte read request of a 1-byte file allocated %.0f bytes", len(req), got)
	}
	r := xdr.NewReader(resp[frameHeader:])
	status, eof, n := r.Uint32(), r.Uint32(), r.Uint32()
	if status != 0 || eof != 1 || n != 1 || resp[readReplyHead] != 7 {
		t.Errorf("reply status %d eof %d n %d, want 0 1 1 and the file's byte", status, eof, n)
	}
	if r := srv.dispatch(cs, readRequest(1, -1, MaxPayload/2)); binary.BigEndian.Uint32(r[frameHeader:]) == 0 {
		t.Error("an oversized read at a negative offset succeeded")
	}
}

// FuzzDispatch holds the node's per-op request decoding to the rule for
// bytes from outside: whatever request payload a peer sends, dispatch does
// not panic, allocates in proportion to the request (plus the one kept
// reply buffer a connection may grow to), and answers with a well-formed
// reply — status 0 and a result, or status 1 and an error string. The seeds
// are one valid request per opcode against a node holding /f (open as
// handle 1) and /d.
func FuzzDispatch(f *testing.F) {
	str := func(op uint32, names ...string) []byte {
		req := request(op)
		for _, n := range names {
			req.String(n)
		}
		return req.Bytes()[frameHeader:]
	}
	withFD := func(op uint32) []byte {
		req := request(op)
		req.Uint32(1)
		return req.Bytes()[frameHeader:]
	}
	write := request(opWrite)
	write.Uint32(1)
	write.VarOpaque([]byte("abc"))
	tablePut := request(opTablePut)
	tablePut.Uint64(1)
	tablePut.VarOpaque([]byte(`{"version":1}`))
	watch := request(opWatch)
	watch.String("/f")
	watch.Uint32(0)
	watch.Uint32(1000)
	for _, seed := range [][]byte{
		str(opCreate, "/g"),
		str(opOpen, "/f"),
		readRequest(1, 0, 1),
		write.Bytes()[frameHeader:],
		withFD(opClose),
		str(opStat, "/f"),
		str(opReadDir, "/"),
		str(opMkdirAll, "/d/e"),
		str(opRemove, "/f"),
		withFD(opSize),
		str(opRename, "/f", "/g"),
		str(opIdent, "tenant"),
		request(opTableGet).Bytes()[frameHeader:],
		tablePut.Bytes()[frameHeader:],
		watch.Bytes()[frameHeader:],
		readRequest(1, 0, MaxPayload/2),
		{}, {0, 0, 0, 99},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		srv, cs := dispatchNode(t)
		// A closing server ends a parked opWatch after its first look at
		// the file, where an open one would wait out the request's timeout
		// (up to maxWatchTimeout): the harness bounds the watch's wait this
		// way and changes nothing else dispatch does.
		srv.Close()
		payload := bytes.Clone(input)
		var resp []byte
		got := heapPerRun(1, func() { resp = srv.dispatch(cs, payload) })
		if limit := float64(4*len(input) + maxKeptRequestBuf + 64<<10); got > limit {
			t.Fatalf("a %d-byte request made dispatch allocate %.0f bytes, limit %.0f", len(input), got, limit)
		}
		r := xdr.NewReader(resp[frameHeader:])
		switch status := r.Uint32(); status {
		case 0:
		case 1:
			if msg := r.String(); r.Err() != nil || msg == "" {
				t.Fatalf("request %x: error reply without a message", input)
			}
		default:
			t.Fatalf("request %x: reply status %d", input, status)
		}
		if r.Err() != nil {
			t.Fatalf("request %x: malformed reply: %v", input, r.Err())
		}
	})
}
