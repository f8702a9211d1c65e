package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/vfs"
)

// startPoolNode serves a MemFS on loopback and returns its address plus
// the server's private metrics registry.
func startPoolNode(t *testing.T, store vfs.FS) (string, *metrics.Registry, *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, nil)
	reg := metrics.NewRegistry()
	srv.SetMetrics(reg)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); ln.Close() })
	return ln.Addr().String(), reg, srv
}

func TestPoolRoundTripAndFanOut(t *testing.T) {
	store := vfs.NewMemFS()
	addr, reg, _ := startPoolNode(t, store)
	c := DialLazy(addr, nil, DefaultRetryPolicy())
	defer c.Close()

	// Files stay usable whichever connection serves later calls: the handle
	// table is per-process on the node.
	if err := c.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	want := []byte("pooled payload")
	f, err := c.Create("/d/file")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Concurrent readers each hold a connection of their own instead of
	// convoying on one.
	readBack := func() error {
		g, err := c.Open("/d/file")
		if err != nil {
			return err
		}
		defer g.Close()
		got := make([]byte, len(want))
		if _, err := g.ReadAt(got, 0); err != nil && err != io.EOF {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("read %q, want %q", got, want)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := readBack(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	conns := reg.Counter("rpc.server.connections")
	dialed := conns.Value()
	if dialed < 1 || dialed > 16 {
		t.Fatalf("server saw %d connections for 16 concurrent readers", dialed)
	}

	// Connections are reused when idle: a sequential round dials none.
	for i := 0; i < 16; i++ {
		if err := readBack(); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Value(); n != dialed {
		t.Fatalf("a sequential round dialed %d more connections", n-dialed)
	}
}

// gatedFS holds every ReadAt on its files until gate closes.
type gatedFS struct {
	vfs.FS
	gate chan struct{}
}

func (g gatedFS) Open(name string) (vfs.File, error) {
	f, err := g.FS.Open(name)
	return gatedFile{f, g.gate}, err
}

type gatedFile struct {
	vfs.File
	gate chan struct{}
}

func (f gatedFile) ReadAt(p []byte, off int64) (int, error) {
	<-f.gate
	return f.File.ReadAt(p, off)
}

// TestClientCallsInFlightNotCapped starts eight ReadAts on one handle while
// the node holds every read: all eight reach the node before any returns,
// each on a connection of its own, and all return the right bytes. Once
// they are idle, a sequential round dials no new connection.
func TestClientCallsInFlightNotCapped(t *testing.T) {
	store := vfs.NewMemFS()
	content := []byte("0123456789abcdef")
	if err := vfs.WriteFile(store, "/f", content); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	addr, reg, _ := startPoolNode(t, gatedFS{store, gate})
	c := DialLazy(addr, nil, DefaultRetryPolicy())
	defer c.Close()
	f, err := c.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const readers = 8
	read := func(i int) error {
		p := make([]byte, 2)
		if n, err := f.ReadAt(p, int64(2*i)); n != 2 || err != nil {
			return fmt.Errorf("ReadAt %d: %d, %v", i, n, err)
		}
		if want := content[2*i : 2*i+2]; !bytes.Equal(p, want) {
			return fmt.Errorf("ReadAt %d = %q, want %q", i, p, want)
		}
		return nil
	}
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() { errs <- read(i) }()
	}
	reads := reg.Counter("rpc.server.op.read")
	for deadline := time.Now().Add(5 * time.Second); reads.Value() < readers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("%d of %d reads reached the node while it held them", reads.Value(), readers)
		}
	}
	close(gate)
	for i := 0; i < readers; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}

	conns := reg.Counter("rpc.server.connections")
	dialed := conns.Value()
	for i := 0; i < readers; i++ {
		if err := read(i); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Value(); n != dialed {
		t.Errorf("a sequential round dialed %d more connections", n-dialed)
	}
}

func TestPoolLazyDialToDownNode(t *testing.T) {
	// Reserve an address nothing listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	// Construction must not block or fail: the node being down surfaces
	// per call, wrapping vfs.ErrBackendDown.
	c := DialLazy(addr, nil, RetryPolicy{MaxAttempts: 2, CallTimeout: 500 * time.Millisecond})
	defer c.Close()
	start := time.Now()
	_, err = c.Stat("/x")
	if !errors.Is(err, vfs.ErrBackendDown) {
		t.Fatalf("Stat on down node = %v, want ErrBackendDown", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("down-node failure took %v, want fast connection-refused", d)
	}
}

func TestClusterTableEndpoint(t *testing.T) {
	addr, _, srv := startPoolNode(t, vfs.NewMemFS())
	c := DialLazy(addr, nil, DefaultRetryPolicy())
	defer c.Close()

	// A node starts with no table.
	data, version, err := c.FetchClusterTable()
	if err != nil || data != nil || version != 0 {
		t.Fatalf("empty fetch = (%q, %d, %v)", data, version, err)
	}

	table2 := []byte(`{"version":2}`)
	if err := c.PushClusterTable(table2, 2); err != nil {
		t.Fatal(err)
	}
	data, version, err = c.FetchClusterTable()
	if err != nil || version != 2 || !bytes.Equal(data, table2) {
		t.Fatalf("fetch after push = (%q, %d, %v)", data, version, err)
	}

	// Same-version re-put is idempotent (retry-safe); an older version is
	// rejected so a lagging controller cannot roll the layout back.
	if err := c.PushClusterTable(table2, 2); err != nil {
		t.Fatalf("idempotent re-put: %v", err)
	}
	err = c.PushClusterTable([]byte(`{"version":1}`), 1)
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale put = %v, want stale-version rejection", err)
	}
	if _, v := srv.ClusterTable(); v != 2 {
		t.Fatalf("node table version = %d after stale put, want 2", v)
	}
}

// watchCRCTable is the polynomial vfs.WatchFile reports CRCs in; the watch
// tests compute the CRC they expect with it.
var watchCRCTable = crc32.MakeTable(crc32.Castagnoli)

// TestPoolWatchDoesNotParkDemandCalls parks two long-polls on an unchanged
// file and then issues demand traffic: every call takes a connection no
// other call holds, so stats — and a read on a file opened before the
// watches began — finish in a small fraction of the watch timeout instead of
// queueing behind a parked poll.
func TestPoolWatchDoesNotParkDemandCalls(t *testing.T) {
	store := vfs.NewMemFS()
	for name, data := range map[string]string{"/head": "v1", "/file": "payload"} {
		if err := vfs.WriteFile(store, name, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	addr, reg, _ := startPoolNode(t, store)
	c := DialLazy(addr, nil, DefaultRetryPolicy())
	defer c.Close()
	creg := metrics.NewRegistry()
	c.SetMetrics(creg)
	if err := c.SetTenant("tailer"); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open("/file")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const watchTimeout = 2 * time.Second
	type result struct {
		data    []byte
		changed bool
		err     error
	}
	woken := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			data, _, changed, err := c.WatchFile("/head", watchCRC([]byte("v1")), watchTimeout)
			woken <- result{data, changed, err}
		}()
	}
	parked := reg.Counter("rpc.server.op.watch")
	for deadline := time.Now().Add(watchTimeout / 2); parked.Value() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 watches reached the node", parked.Value())
		}
	}

	start := time.Now()
	for i := 0; i < 50; i++ {
		if _, err := c.Stat("/file"); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, len("payload"))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF || string(got) != "payload" {
		t.Fatalf("read beside parked watches = %q, %v", got, err)
	}
	if d := time.Since(start); d > watchTimeout/4 {
		t.Fatalf("demand calls took %v beside two parked %v watches", d, watchTimeout)
	}
	select {
	case r := <-woken:
		t.Fatalf("a watch returned with the file unchanged: %+v", r)
	default:
	}

	// The watches are still live: a change wakes both.
	if err := vfs.WriteFile(store, "/head", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if r := <-woken; r.err != nil || !r.changed || string(r.data) != "v2" {
			t.Fatalf("parked watch woke with %+v", r)
		}
	}

	// One connection per call in flight, reused once idle: the two parked
	// watches and the demand calls beside them, each identified as the
	// tenant before its first call, all in one registry, closed with the
	// client.
	if _, _, changed, err := c.WatchFile("/head", 0, time.Second); err != nil || !changed {
		t.Fatalf("watch on an idle connection = changed %v, %v", changed, err)
	}
	if n := reg.Counter("rpc.server.connections").Value(); n != 3 {
		t.Errorf("node saw %d connections, want 2 for the watches + 1 for the demand calls", n)
	}
	if n := reg.Counter("rpc.server.op.ident").Value(); n != 3 {
		t.Errorf("node saw %d idents, want one per connection", n)
	}
	if n := creg.Counter("rpc.client.requests").Value(); n != 1+1+50+1+3 {
		t.Errorf("rpc.client.requests = %d, want 1 ident, 1 open, 50 stats, 1 read and 3 watches in one registry", n)
	}
	c.mu.Lock()
	idle := append([]*conn(nil), c.idle...)
	c.mu.Unlock()
	if len(idle) != 3 {
		t.Errorf("client holds %d idle connections, want 3", len(idle))
	}
	for _, pc := range idle {
		if pc.tenant != "tailer" {
			t.Errorf("a connection declared tenant %q", pc.tenant)
		}
	}
	c.Close()
	if _, _, _, err := c.WatchFile("/head", 0, 0); !errors.Is(err, ErrClientClosed) {
		t.Errorf("watch on a closed client = %v, want ErrClientClosed", err)
	}
	for _, pc := range idle {
		if pc.SetDeadline(time.Time{}) == nil {
			t.Error("Close left a connection open")
		}
	}
}
