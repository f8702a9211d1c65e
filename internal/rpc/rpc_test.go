package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gpcr"
	"repro/internal/mdsim"
	"repro/internal/pdb"
	"repro/internal/plfs"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// startNode launches a server over a fresh MemFS on a loopback listener and
// returns a connected client.
func startNode(t *testing.T) (*Client, *vfs.MemFS) {
	t.Helper()
	store := vfs.NewMemFS()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, nil)
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close() })
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, store
}

func TestRemoteWriteRead(t *testing.T) {
	c, store := startNode(t)
	if err := c.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("remote!"), 10000)
	if err := vfs.WriteFile(c, "/data/f", data); err != nil {
		t.Fatal(err)
	}
	// Visible on the server's store.
	got, err := vfs.ReadFile(store, "/data/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("server store: %d bytes, %v", len(got), err)
	}
	// And readable back through the client.
	got, err = vfs.ReadFile(c, "/data/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("client read: %d bytes, %v", len(got), err)
	}
}

func TestRemoteStatReadDir(t *testing.T) {
	c, _ := startNode(t)
	if err := c.MkdirAll("/d/sub"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(c, "/d/a", []byte("xy")); err != nil {
		t.Fatal(err)
	}
	info, err := c.Stat("/d/a")
	if err != nil || info.Size != 2 || info.IsDir {
		t.Errorf("Stat = %+v, %v", info, err)
	}
	entries, err := c.ReadDir("/d")
	if err != nil || len(entries) != 2 {
		t.Fatalf("ReadDir = %+v, %v", entries, err)
	}
	if entries[0].Name != "a" || !entries[1].IsDir {
		t.Errorf("entries = %+v", entries)
	}
}

func TestRemoteErrorsPreserveSentinels(t *testing.T) {
	c, _ := startNode(t)
	if _, err := c.Open("/missing"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("Open missing = %v, want ErrNotExist", err)
	}
	if _, err := c.Stat("/missing"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("Stat missing = %v", err)
	}
	if err := vfs.WriteFile(c, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadDir("/f"); !errors.Is(err, vfs.ErrNotDir) {
		t.Errorf("ReadDir on file = %v", err)
	}
}

func TestRemoteRemove(t *testing.T) {
	c, store := startNode(t)
	if err := vfs.WriteFile(c, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if vfs.Exists(store, "/f") {
		t.Error("file still on server")
	}
	if err := c.Remove("/f"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("double remove = %v", err)
	}
}

func TestRemoteReadAt(t *testing.T) {
	c, _ := startNode(t)
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	if err := vfs.WriteFile(c, "/f", data); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 100)
	if _, err := f.ReadAt(buf, 500); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if buf[i] != data[500+i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	if f.Size() != 1000 {
		t.Errorf("Size = %d", f.Size())
	}
}

func TestConcurrentClients(t *testing.T) {
	c, _ := startNode(t)
	if err := c.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("/d/f%d", i)
			data := bytes.Repeat([]byte{byte(i)}, 10000+i)
			if err := vfs.WriteFile(c, name, data); err != nil {
				errs <- err
				return
			}
			got, err := vfs.ReadFile(c, name)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("goroutine %d: data mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestADAOverRemoteBackends is the cross-process integration path: two
// storage-node servers over TCP, PLFS containers spanning them, ADA
// ingesting and serving tag reads through the sockets.
func TestADAOverRemoteBackends(t *testing.T) {
	ssd, _ := startNode(t)
	hdd, _ := startNode(t)
	containers, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: ssd, Mount: "/mnt1"},
		plfs.Backend{Name: "hdd", FS: hdd, Mount: "/mnt2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	a := core.New(containers, nil, core.Options{})

	pdbBytes, traj := makeDataset(t)
	rep, err := a.Ingest("/remote.xtc", pdbBytes, bytes.NewReader(traj))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 3 {
		t.Fatalf("frames = %d", rep.Frames)
	}
	sr, err := a.OpenSubset("/remote.xtc", core.TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	n := 0
	for {
		f, err := sr.ReadFrame()
		if err != nil {
			break
		}
		if f.NAtoms() != sr.Ranges.Count() {
			t.Fatalf("frame atoms = %d", f.NAtoms())
		}
		n++
	}
	if n != 3 {
		t.Errorf("read %d subset frames over TCP, want 3", n)
	}
}

// makeDataset builds a small pdb + compressed trajectory pair.
func makeDataset(t *testing.T) (pdbBytes, traj []byte) {
	t.Helper()
	sys, err := gpcr.Scaled(300).Build()
	if err != nil {
		t.Fatal(err)
	}
	var pb bytes.Buffer
	if err := pdb.Write(&pb, sys.Structure); err != nil {
		t.Fatal(err)
	}
	cats := make([]pdb.Category, sys.Structure.NAtoms())
	for i := range cats {
		cats[i] = sys.Structure.Atoms[i].Category
	}
	s, err := mdsim.New(sys.Coords, cats, sys.Box, mdsim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	w := xtc.NewWriter(&tb)
	if err := s.WriteTrajectory(w, 3); err != nil {
		t.Fatal(err)
	}
	return pb.Bytes(), tb.Bytes()
}

func TestFrameLimit(t *testing.T) {
	// A corrupt length prefix must not allocate gigabytes.
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	go func() {
		// Absurd frame length.
		client.Write([]byte{0xff, 0xff, 0xff, 0xff})
	}()
	if _, err := readFrame(server, nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("err = %v, want ErrProtocol", err)
	}
}
