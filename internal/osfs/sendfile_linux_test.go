package osfs

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"repro/internal/vfs"
)

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t *testing.T) (*net.TCPConn, *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { dialed.Close(); server.Close() })
	return server.(*net.TCPConn), dialed.(*net.TCPConn)
}

// sendFile is a file of distinct bytes on a fresh FS, opened for reading.
func sendFile(t *testing.T, n int) (vfs.File, []byte) {
	t.Helper()
	s := newFS(t)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := vfs.WriteFile(s, "/f", data); err != nil {
		t.Fatal(err)
	}
	f, err := s.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, data
}

// TestSendRangeTCP sends ranges of a file to a TCP connection with
// sendfile(2): the bytes that arrive are the file's, a range past the end
// comes up short with no error, and the handle's own offset does not move.
func TestSendRangeTCP(t *testing.T) {
	f, data := sendFile(t, 300<<10)
	server, client := tcpPair(t)
	if !vfs.CanSendRange(f, server) {
		t.Fatal("an osfs file cannot send to a TCP connection")
	}
	for _, r := range []struct{ off, n, want int64 }{
		{0, int64(len(data)), int64(len(data))},
		{1, 1, 1},
		{12345, 222 << 10, 222 << 10},
		{int64(len(data)) - 10, 100, 10},
		{int64(len(data)) + 5, 100, 0},
		{7, 0, 0},
	} {
		sent, err := vfs.SendRange(f, server, r.off, r.n)
		if err != nil || sent != r.want {
			t.Fatalf("SendRange(%d, %d) = %d, %v; want %d", r.off, r.n, sent, err, r.want)
		}
		got := make([]byte, sent)
		if _, err := io.ReadFull(client, got); err != nil {
			t.Fatal(err)
		}
		if sent > 0 && !bytes.Equal(got, data[r.off:r.off+sent]) {
			t.Fatalf("SendRange(%d, %d) delivered other bytes than the file's", r.off, r.n)
		}
	}
	head := make([]byte, 16)
	if _, err := io.ReadFull(f, head); err != nil || !bytes.Equal(head, data[:16]) {
		t.Errorf("Read after the sends = %v, %v; the handle's offset moved", head, err)
	}
}

// TestSendRangeConcurrent sends two ranges of one handle to two connections
// at once: each connection gets its own range.
func TestSendRangeConcurrent(t *testing.T) {
	f, data := sendFile(t, 1<<20)
	var wg sync.WaitGroup
	for k, off := range []int64{0, 600 << 10} {
		server, client := tcpPair(t)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if sent, err := vfs.SendRange(f, server, off, 200<<10); err != nil || sent != 200<<10 {
					t.Errorf("sender %d: %d, %v", k, sent, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			got := make([]byte, 200<<10)
			for i := 0; i < 20; i++ {
				if _, err := io.ReadFull(client, got); err != nil {
					t.Errorf("receiver %d: %v", k, err)
					return
				}
				if !bytes.Equal(got, data[off:off+200<<10]) {
					t.Errorf("receiver %d: send %d delivered other bytes", k, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSendRangeOtherWriters: a connection that is not TCP, or any other
// writer, gets the range copied.
func TestSendRangeOtherWriters(t *testing.T) {
	f, data := sendFile(t, 64<<10)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if vfs.CanSendRange(f, a) {
		t.Error("CanSendRange to a net.Pipe end")
	}
	var buf bytes.Buffer
	if vfs.CanSendRange(f, &buf) {
		t.Error("CanSendRange to a bytes.Buffer")
	}
	if sent, err := vfs.SendRange(f, &buf, 100, 1000); err != nil || sent != 1000 || !bytes.Equal(buf.Bytes(), data[100:1100]) {
		t.Errorf("SendRange to a buffer = %d, %v", sent, err)
	}
}

// TestSendRangeAllocs bounds what a send costs the node's heap: one small
// allocation (the connection's raw handle), none the size of the range. The
// file's raw handle is taken at open and the send's state is pooled, so
// neither is allocated per send (the count is not pinned under the race
// detector, whose pools drop what is put back).
func TestSendRangeAllocs(t *testing.T) {
	f, _ := sendFile(t, 256<<10)
	server, client := tcpPair(t)
	go io.Copy(io.Discard, client)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const sends = 50
	for i := 0; i < sends; i++ {
		if _, err := vfs.SendRange(f, server, 0, 222<<10); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / sends; per > 1024 {
		t.Errorf("%.0f heap bytes per 222 kB send: the range is being copied", per)
	}
	if raceEnabled {
		return
	}
	allocs := testing.AllocsPerRun(sends, func() {
		if _, err := vfs.SendRange(f, server, 0, 222<<10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("%.1f allocations per send, want at most 1", allocs)
	}
}
