// Live ingest: a producer appends trajectory frames to an open dataset
// while a reader tails the growing head — the streaming analogue of the
// quickstart's one-shot ingest. Sealing the session leaves an ordinary
// immutable container, byte-identical to what a one-shot ingest of the
// same frames would have written.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"sync"

	ada "repro"
)

func main() {
	store, err := ada.NewContainerStore(
		ada.Backend{Name: "ssd", FS: ada.NewMemFS(), Mount: "/mnt1"},
		ada.Backend{Name: "hdd", FS: ada.NewMemFS(), Mount: "/mnt2"},
	)
	if err != nil {
		log.Fatal(err)
	}
	reg := ada.NewMetricsRegistry()
	acq := ada.New(store, nil, ada.Options{Metrics: reg})

	// A 1/50-scale CB1-like system with 24 trajectory frames. A real
	// deployment would receive these frames from a running simulation; here
	// the whole trajectory is pre-generated and split into batches.
	const frames = 24
	pdbBytes, xtcBytes, err := ada.GenerateTrajectory(ada.ScaledSystem(50), frames)
	if err != nil {
		log.Fatal(err)
	}
	batches := splitBatches(xtcBytes, 4)
	fmt.Printf("generated %d frames (%d bytes compressed) in %d batches\n",
		frames, len(xtcBytes), len(batches))

	// Open the live session. Each Append returns once its batch is durable
	// and published as the new head; Seal turns the dataset into an
	// ordinary container.
	li, err := acq.OpenLiveIngest("/live.xtc", pdbBytes)
	if err != nil {
		log.Fatal(err)
	}

	// Tail the protein subset while it grows. The source blocks reads past
	// the head until the producer publishes, so the consumer just reads
	// 0, 1, 2, ... and io.EOF marks the seal.
	src, err := ada.OpenStream(acq, "/live.xtc", ada.TagProtein, ada.StreamOptions{Metrics: reg})
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			f, err := src.ReadFrameAt(i)
			if errors.Is(err, io.EOF) {
				fmt.Printf("tail: sealed after %d frames\n", i)
				return
			}
			if err != nil {
				log.Fatal(err)
			}
			if i%8 == 0 {
				fmt.Printf("tail: frame %d (step %d, %d protein atoms), head at %d\n",
					i, f.Step, len(f.Coords), src.Frames())
			}
		}
	}()

	for _, b := range batches {
		if _, err := li.Append(b); err != nil {
			li.Abort() // the tail sees the dataset vanish
			log.Fatal(err)
		}
	}
	report, err := li.Seal()
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()
	fmt.Printf("sealed: %d frames, %d raw bytes, subsets %v\n",
		report.Frames, report.Raw, report.Subsets)

	// The sealed dataset is an ordinary container now: the one-shot read
	// path sees exactly what the tail saw.
	sub, err := acq.OpenSubset("/live.xtc", ada.TagProtein)
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()
	n := 0
	for {
		if _, err := sub.ReadFrame(); err == io.EOF {
			break
		} else if err != nil {
			log.Fatal(err)
		}
		n++
	}
	fmt.Printf("sealed container replays %d frames through the ordinary subset reader\n", n)

	snap := reg.Snapshot()
	fmt.Printf("head version=%d (open + one per batch), tail lag observations=%d\n",
		li.Head().Version, snap.Histograms["stream.tail.lag_frames"].Count)
}

// splitBatches cuts a compressed XTC stream into batches of n whole frames
// using the format's self-describing frame headers.
func splitBatches(xtcBytes []byte, n int) [][]byte {
	idx, err := ada.BuildXTCIndex(bytes.NewReader(xtcBytes), int64(len(xtcBytes)))
	if err != nil {
		log.Fatal(err)
	}
	var out [][]byte
	for i := 0; i < idx.Frames(); i += n {
		j := i + n
		if j > idx.Frames() {
			j = idx.Frames()
		}
		end := idx.Offset(j-1) + idx.Size(j-1)
		out = append(out, xtcBytes[idx.Offset(i):end])
	}
	return out
}
