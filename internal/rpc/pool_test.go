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
	pool := NewPool(addr, 4, nil, DefaultRetryPolicy())
	defer pool.Close()

	// Files stay usable regardless of which member serves later calls:
	// the handle table is per-process on the node.
	if err := pool.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	want := []byte("pooled payload")
	f, err := pool.Create("/d/file")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Concurrent readers spread across the members instead of convoying
	// on one connection.
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := pool.Open("/d/file")
			if err != nil {
				errs <- err
				return
			}
			defer g.Close()
			got := make([]byte, len(want))
			if _, err := g.ReadAt(got, 0); err != nil && err.Error() != "EOF" {
				errs <- err
				return
			}
			if !bytes.Equal(got, want) {
				errs <- fmt.Errorf("read %q, want %q", got, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if conns := reg.Counter("rpc.server.connections").Value(); conns != 4 {
		t.Fatalf("server saw %d connections, want all 4 pool members", conns)
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
	pool := NewPool(addr, 2, nil, RetryPolicy{MaxAttempts: 2, CallTimeout: 500 * time.Millisecond})
	defer pool.Close()
	start := time.Now()
	_, err = pool.Stat("/x")
	if !errors.Is(err, vfs.ErrBackendDown) {
		t.Fatalf("Stat on down node = %v, want ErrBackendDown", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("down-node failure took %v, want fast connection-refused", d)
	}
}

func TestClusterTableEndpoint(t *testing.T) {
	addr, _, srv := startPoolNode(t, vfs.NewMemFS())
	pool := NewPool(addr, 2, nil, DefaultRetryPolicy())
	defer pool.Close()

	// A node starts with no table.
	data, version, err := pool.FetchClusterTable()
	if err != nil || data != nil || version != 0 {
		t.Fatalf("empty fetch = (%q, %d, %v)", data, version, err)
	}

	table2 := []byte(`{"version":2}`)
	if err := pool.PushClusterTable(table2, 2); err != nil {
		t.Fatal(err)
	}
	data, version, err = pool.FetchClusterTable()
	if err != nil || version != 2 || !bytes.Equal(data, table2) {
		t.Fatalf("fetch after push = (%q, %d, %v)", data, version, err)
	}

	// Same-version re-put is idempotent (retry-safe); an older version is
	// rejected so a lagging controller cannot roll the layout back.
	if err := pool.PushClusterTable(table2, 2); err != nil {
		t.Fatalf("idempotent re-put: %v", err)
	}
	err = pool.PushClusterTable([]byte(`{"version":1}`), 1)
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

// TestPoolWatchDoesNotParkDemandCalls parks as many long-polls as the pool
// has members on an unchanged file and then issues demand traffic: the
// watches ride connections of their own, so stats — and a read on a file
// bound to a member before the watches began — finish in a small fraction of
// the watch timeout instead of queueing behind a parked poll.
func TestPoolWatchDoesNotParkDemandCalls(t *testing.T) {
	store := vfs.NewMemFS()
	for name, data := range map[string]string{"/head": "v1", "/file": "payload"} {
		if err := vfs.WriteFile(store, name, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	addr, reg, _ := startPoolNode(t, store)
	pool := NewPool(addr, 2, nil, DefaultRetryPolicy())
	defer pool.Close()
	creg := metrics.NewRegistry()
	pool.SetMetrics(creg)
	if err := pool.SetTenant("tailer"); err != nil {
		t.Fatal(err)
	}
	f, err := pool.Open("/file")
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
			data, _, changed, err := pool.WatchFile("/head", watchCRC([]byte("v1")), watchTimeout)
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
		if _, err := pool.Stat("/file"); err != nil {
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

	// One connection per concurrent watch, reused once idle, and set up like
	// the members: same metrics, same tenant, closed with the pool.
	if _, _, changed, err := pool.WatchFile("/head", 0, time.Second); err != nil || !changed {
		t.Fatalf("watch on an idle connection = changed %v, %v", changed, err)
	}
	if n := reg.Counter("rpc.server.connections").Value(); n != 4 {
		t.Errorf("node saw %d connections, want 2 members + 2 watch connections", n)
	}
	if n := creg.Counter("rpc.client.requests").Value(); n != 2+1+50+1+3 {
		t.Errorf("rpc.client.requests = %d, want 2 idents, 1 open, 50 stats, 1 read and 3 watches in one registry", n)
	}
	pool.SetRetryPolicy(RetryPolicy{MaxAttempts: 1, CallTimeout: time.Second})
	for _, c := range pool.conns() {
		if c.tenant != "tailer" || c.policy.MaxAttempts != 1 {
			t.Errorf("a pool connection has tenant %q, policy %+v", c.tenant, c.policy)
		}
	}
	if len(pool.conns()) != 4 {
		t.Errorf("pool owns %d connections, want 4", len(pool.conns()))
	}
	pool.Close()
	if _, _, _, err := pool.WatchFile("/head", 0, 0); !errors.Is(err, ErrClientClosed) {
		t.Errorf("watch on a closed pool = %v, want ErrClientClosed", err)
	}
	for _, c := range pool.conns() {
		if !c.closed {
			t.Error("Close left a pool connection open")
		}
	}
}
