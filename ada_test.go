package ada_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	ada "repro"
	"repro/internal/xtc"
)

// newStore builds a two-backend in-memory container store.
func newStore(t *testing.T) *ada.ContainerStore {
	t.Helper()
	store, err := ada.NewContainerStore(
		ada.Backend{Name: "ssd", FS: ada.NewMemFS(), Mount: "/mnt1"},
		ada.Backend{Name: "hdd", FS: ada.NewMemFS(), Mount: "/mnt2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestQuickstartFlow(t *testing.T) {
	acq := ada.New(newStore(t), nil, ada.Options{})
	pdbBytes, xtcBytes, err := ada.GenerateTrajectory(ada.ScaledSystem(100), 5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := acq.Ingest("/bar.xtc", pdbBytes, bytes.NewReader(xtcBytes))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 5 || rep.Raw <= rep.Compressed {
		t.Fatalf("report = %+v", rep)
	}
	sub, err := acq.OpenSubset("/bar.xtc", ada.TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	frames := 0
	for {
		f, err := sub.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.NAtoms() != sub.Info.NAtoms {
			t.Fatalf("frame atoms = %d, want %d", f.NAtoms(), sub.Info.NAtoms)
		}
		frames++
	}
	if frames != 5 {
		t.Errorf("streamed %d frames", frames)
	}

	names, err := acq.Datasets()
	if err != nil || len(names) != 1 || names[0] != "/bar.xtc" {
		t.Errorf("Datasets = %v, %v", names, err)
	}
	if err := acq.Remove("/bar.xtc"); err != nil {
		t.Fatal(err)
	}
	if names, _ := acq.Datasets(); len(names) != 0 {
		t.Errorf("after Remove: %v", names)
	}
}

func TestFacadeSessionOOM(t *testing.T) {
	p, err := ada.NewFatNode()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.Stage("g", ada.ScaledSystem(100), 4)
	if err != nil {
		t.Fatal(err)
	}
	p.MemCapacity = ds.Raw / 2
	s := p.NewSession()
	if err := s.MolNew(p.Traditional, ds.PDBPath); err != nil {
		t.Fatal(err)
	}
	err = s.LoadRaw(p.Traditional, ds.RawPath)
	if !errors.Is(err, ada.ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestFacadeSchema(t *testing.T) {
	schema, err := ada.ParseSchema([]byte(`{
	  "name": "t",
	  "rules": [{"tag": "active", "categories": ["protein", "ligand"]}],
	  "default_tag": "inactive",
	  "placement": {"active": "ssd", "inactive": "hdd"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	acq := ada.New(newStore(t), nil, ada.Options{Schema: schema})
	pdbBytes, xtcBytes, err := ada.GenerateTrajectory(ada.ScaledSystem(150), 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := acq.Ingest("/s", pdbBytes, bytes.NewReader(xtcBytes))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Subsets) != 2 || rep.Subsets["active"] == 0 || rep.Subsets["inactive"] == 0 {
		t.Errorf("subsets = %v", rep.Subsets)
	}
}

func TestFacadeSelect(t *testing.T) {
	sys, err := ada.ScaledSystem(150).Build()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := ada.Select(sys.Structure, "protein or ligand")
	if err != nil {
		t.Fatal(err)
	}
	counts := sys.Structure.CategoryCounts()
	if sel.Count() != counts[0]+counts[4] { // protein + ligand
		t.Errorf("selection = %d atoms", sel.Count())
	}
}

func TestFacadePlayback(t *testing.T) {
	acq := ada.New(newStore(t), nil, ada.Options{})
	pdbBytes, xtcBytes, err := ada.GenerateTrajectory(ada.ScaledSystem(150), 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acq.Ingest("/p", pdbBytes, bytes.NewReader(xtcBytes)); err != nil {
		t.Fatal(err)
	}
	sub, err := acq.OpenSubsetAt("/p", ada.TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	s := ada.NewSession(nil, 0, ada.ComputeCost{})
	cache := s.NewFrameCache(sub, 1<<30)
	stats, err := s.Play(cache, ada.BackAndForthPattern(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	if stats.FramesShown != 18 || stats.Cache.Misses != 6 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestFacadeIngestParallelAndFormats(t *testing.T) {
	acq := ada.New(newStore(t), nil, ada.Options{})
	pdbBytes, xtcBytes, err := ada.GenerateTrajectory(ada.ScaledSystem(150), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acq.IngestParallel("/par", pdbBytes, bytes.NewReader(xtcBytes), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := acq.IngestTrajectory("/adapter", pdbBytes,
		ada.NewXTCTrajectory(bytes.NewReader(xtcBytes))); err != nil {
		t.Fatal(err)
	}
	names, err := acq.Datasets()
	if err != nil || len(names) != 2 {
		t.Errorf("Datasets = %v, %v", names, err)
	}
}

// TestIngestRefillsDecodedFrames: Ingest decodes into the frames its loop
// has written out, so it allocates a trajectory's worth of decoded frames
// less than the same ingest fed by an in-line reader, whose every frame is
// new. (What the store itself allocates is the same on both sides.)
func TestIngestRefillsDecodedFrames(t *testing.T) {
	const frames = 200
	pdbBytes, xtcBytes, err := ada.GenerateTrajectory(ada.ScaledSystem(20), frames)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(ingest func(acq *ada.Acquirer) (*ada.IngestReport, error)) (uint64, int64) {
		acq := ada.New(newStore(t), nil, ada.Options{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := ingest(acq)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, rep.Raw
	}
	inline, raw := allocated(func(acq *ada.Acquirer) (*ada.IngestReport, error) {
		return acq.IngestTrajectory("/ds", pdbBytes, ada.NewXTCTrajectory(bytes.NewReader(xtcBytes)))
	})
	ahead, _ := allocated(func(acq *ada.Acquirer) (*ada.IngestReport, error) {
		return acq.Ingest("/ds", pdbBytes, bytes.NewReader(xtcBytes))
	})
	if saved := int64(inline) - int64(ahead); saved < raw/2 {
		t.Errorf("Ingest allocated %d B, the in-line ingest %d B: %d B less, want at least half the %d B of decoded frames",
			ahead, inline, saved, raw)
	}
}

// killableListener is a storage node's listener whose kill takes the node
// off the network: the listener closes, and so does every connection it
// accepted, as when the node's process dies.
type killableListener struct {
	net.Listener
	mu     sync.Mutex
	conns  []net.Conn
	killed bool
}

func (l *killableListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.killed {
		conn.Close()
		return nil, net.ErrClosed
	}
	l.conns = append(l.conns, conn)
	return conn, nil
}

func (l *killableListener) kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.killed {
		return
	}
	l.killed = true
	l.Listener.Close()
	for _, conn := range l.conns {
		conn.Close()
	}
}

// proteinFrames reads every frame of the protein subset through a fresh
// random-access reader.
func proteinFrames(t *testing.T, acq *ada.Acquirer, logical string) []*xtc.Frame {
	t.Helper()
	sub, err := acq.OpenSubsetAt(logical, ada.TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	frames := make([]*xtc.Frame, sub.Frames())
	for i := range frames {
		if frames[i], err = sub.ReadFrameAt(i); err != nil {
			t.Fatalf("protein frame %d: %v", i, err)
		}
	}
	return frames
}

// TestFacadeClusterSnippet runs README's "Multi-node cluster" Go snippet —
// a zero ClusterConfig over two loopback storage nodes with replication 2 —
// and holds its protein frames to the same ingest over one in-memory
// backend, before and after one node is killed.
func TestFacadeClusterSnippet(t *testing.T) {
	const logical = "/bar.xtc"
	pdbBytes, xtcBytes, err := ada.GenerateTrajectory(ada.ScaledSystem(100), 10)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ada.NewContainerStore(ada.Backend{Name: "mem", FS: ada.NewMemFS(), Mount: "/mem"})
	if err != nil {
		t.Fatal(err)
	}
	refAcq := ada.New(ref, nil, ada.Options{})
	if _, err := refAcq.Ingest(logical, pdbBytes, bytes.NewReader(xtcBytes)); err != nil {
		t.Fatal(err)
	}
	want := proteinFrames(t, refAcq, logical)

	listeners := map[string]*killableListener{}
	tableJSON := `{"version": 1, "replication": 2, "nodes": [`
	for i, name := range []string{"n1", "n2"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		kl := &killableListener{Listener: ln}
		listeners[name] = kl
		served := make(chan error, 1)
		go func() { served <- ada.ServeStorageNode(kl, ada.NewMemFS(), nil) }()
		t.Cleanup(func() { kl.kill(); <-served })
		if i > 0 {
			tableJSON += ", "
		}
		tableJSON += fmt.Sprintf(`{"name": %q, "addr": %q}`, name, ln.Addr())
	}
	tableJSON += "]}"

	tbl, err := ada.ParsePlacementTable([]byte(tableJSON))
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]ada.FS{}
	for _, n := range tbl.Nodes {
		pool := ada.NewStorageNodePool(n.Addr, 2, nil, ada.DefaultRetryPolicy())
		t.Cleanup(func() { pool.Close() })
		nodes[n.Name] = pool
	}
	clu, err := ada.NewStorageCluster(tbl, nodes, ada.ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := ada.NewContainerStore(ada.Backend{Name: "clu", FS: clu, Mount: "/clu"})
	if err != nil {
		t.Fatal(err)
	}
	acq := ada.New(store, nil, ada.Options{})
	if _, err := acq.Ingest(logical, pdbBytes, bytes.NewReader(xtcBytes)); err != nil {
		t.Fatal(err)
	}
	if got := proteinFrames(t, acq, logical); !reflect.DeepEqual(got, want) {
		t.Fatal("protein frames read through the cluster differ from the in-memory ingest")
	}

	// Kill the container's primary, the replica every read tries first.
	victim := clu.Table().PlaceDir("/clu" + logical)[0]
	listeners[victim].kill()
	if got := proteinFrames(t, acq, logical); !reflect.DeepEqual(got, want) {
		t.Fatalf("with %s killed, protein frames differ from the in-memory ingest", victim)
	}
	if clu.Health()[victim] {
		t.Errorf("reads after %s was killed never failed over from it", victim)
	}
}

func TestFacadeBanner(t *testing.T) {
	if !strings.Contains(ada.String(), ada.Version) {
		t.Errorf("banner %q missing version", ada.String())
	}
}
