package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/xtc"
)

// Fsck and scrubbing: the offline/background halves of the integrity story.
// Fsck walks one dataset and checks every dropping against the checksums
// recorded at ingest; the Scrubber repeats that over all datasets at a
// bounded byte rate so latent corruption (bit rot, torn repairs) is found
// before a reader trips over it.

// Dropping verdicts reported by Fsck.
const (
	VerdictOK          = "ok"          // checksum (or structural check) passed
	VerdictCorrupt     = "corrupt"     // stored bytes fail their checksum
	VerdictMissing     = "missing"     // manifest references it, store lacks it
	VerdictUnverified  = "unverified"  // no checksum recorded (legacy dataset)
	VerdictUncommitted = "uncommitted" // staging/journal leftovers of an interrupted ingest
)

// DroppingVerdict is Fsck's judgement of one dropping.
type DroppingVerdict struct {
	Name    string
	Backend string
	Status  string
	Detail  string
}

// FsckResult is the verdict list for one dataset.
type FsckResult struct {
	Logical   string
	Verdicts  []DroppingVerdict
	Corrupt   int
	Missing   int
	Committed bool // manifest present and parseable
}

// OK reports whether the dataset is fully committed with nothing corrupt
// or missing.
func (r *FsckResult) OK() bool {
	return r.Committed && r.Corrupt == 0 && r.Missing == 0
}

// Fsck verifies one dataset end to end: subset droppings against their
// whole-stream and per-frame CRC32Cs, and every metadata dropping against
// the manifest's integrity map.
func (a *ADA) Fsck(logical string) (*FsckResult, error) {
	res := &FsckResult{Logical: logical}
	idx, err := a.containers.Index(logical)
	if err != nil {
		return nil, err
	}
	backends := map[string]string{}
	for _, d := range idx {
		backends[d.Name] = d.Backend
	}
	add := func(name, status, detail string) {
		res.Verdicts = append(res.Verdicts, DroppingVerdict{
			Name: name, Backend: backends[name], Status: status, Detail: detail,
		})
		switch status {
		case VerdictCorrupt:
			res.Corrupt++
		case VerdictMissing:
			res.Missing++
		}
	}

	m, err := a.Manifest(logical)
	if err != nil {
		// No readable manifest: everything present is an uncommitted
		// leftover (or damage); Recover is the tool, not fsck.
		for _, d := range idx {
			add(d.Name, VerdictUncommitted, "no readable manifest")
		}
		return res, nil
	}
	res.Committed = true

	seen := map[string]bool{droppingManifest: true}
	for _, tag := range m.Tags() {
		seen[subsetPrefix+tag] = true
		a.fsckSubset(logical, m.Subsets[tag], add)
	}
	names := make([]string, 0, len(m.Checksums))
	for name := range m.Checksums {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		a.fsckChecksummed(logical, name, m.Checksums[name], add)
	}
	// Anything else in the container: staging/journal leftovers are
	// uncommitted; unknown droppings are merely unverified.
	for _, d := range idx {
		if seen[d.Name] {
			continue
		}
		if d.Name == droppingJournal || strings.HasPrefix(d.Name, stagingPrefix) {
			add(d.Name, VerdictUncommitted, "leftover ingest state; run Recover")
		} else {
			add(d.Name, VerdictUnverified, "no checksum recorded")
		}
	}
	return res, nil
}

// fsckSubset checks one subset payload: whole-stream CRC32C first, then each
// frame against the v2 index when one is available.
func (a *ADA) fsckSubset(logical string, sub Subset, add func(name, status, detail string)) {
	name := subsetPrefix + sub.Tag
	data, err := a.readDropping(logical, name)
	if err != nil {
		add(name, VerdictMissing, err.Error())
		return
	}
	if sub.CRC32C == 0 {
		add(name, VerdictUnverified, "ingested without checksums")
		return
	}
	if int64(len(data)) != sub.Bytes {
		add(name, VerdictCorrupt, fmt.Sprintf("%d bytes stored, manifest says %d", len(data), sub.Bytes))
		return
	}
	if got := xtc.CRC32C(data); got != sub.CRC32C {
		// Locate the damage with the per-frame checksums when possible.
		detail := fmt.Sprintf("stream CRC32C %08x, manifest says %08x", got, sub.CRC32C)
		if idxBytes, err := a.readDropping(logical, indexPrefix+sub.Tag); err == nil {
			if idx, err := xtc.UnmarshalIndex(idxBytes); err == nil && idx.HasChecksums() {
				for i := 0; i < idx.Frames(); i++ {
					end := idx.Offset(i) + idx.Size(i)
					if end > int64(len(data)) {
						break
					}
					if !idx.FrameOK(i, data[idx.Offset(i):end]) {
						detail = fmt.Sprintf("frame %d fails its checksum (%s)", i, detail)
						break
					}
				}
			}
		}
		add(name, VerdictCorrupt, detail)
		return
	}
	add(name, VerdictOK, "")
}

// fsckChecksummed checks one metadata dropping against the manifest's
// integrity map.
func (a *ADA) fsckChecksummed(logical, name string, want uint32, add func(name, status, detail string)) {
	data, err := a.readDropping(logical, name)
	if err != nil {
		add(name, VerdictMissing, err.Error())
		return
	}
	if got := xtc.CRC32C(data); got != want {
		add(name, VerdictCorrupt, fmt.Sprintf("CRC32C %08x, manifest says %08x", got, want))
		return
	}
	add(name, VerdictOK, "")
}

// scrubMetrics counts background scrub activity under core.scrub.*.
type scrubMetrics struct {
	passes    *metrics.Counter // core.scrub.passes: full sweeps completed
	datasets  *metrics.Counter // core.scrub.datasets
	droppings *metrics.Counter // core.scrub.droppings
	bytes     *metrics.Counter // core.scrub.bytes
	corrupted *metrics.Counter // core.scrub.corrupted
	missing   *metrics.Counter // core.scrub.missing
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Datasets  int
	Droppings int
	Bytes     int64
	Corrupt   []DroppingVerdict // corrupt or missing droppings, per dataset order
	Elapsed   time.Duration
}

// Scrubber walks every dataset verifying checksums at a bounded byte rate,
// the proactive counterpart of the lazy read-path verification.
type Scrubber struct {
	a    *ADA
	rate int64 // payload bytes per second; <=0 = unthrottled
	sm   scrubMetrics

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// NewScrubber returns a scrubber over this instance's datasets. rate bounds
// how many payload bytes per second a pass may verify (<=0 for no bound),
// keeping background scrubbing from starving foreground reads.
func (a *ADA) NewScrubber(rate int64) *Scrubber {
	return &Scrubber{
		a:    a,
		rate: rate,
		sm: scrubMetrics{
			passes:    a.reg.Counter("core.scrub.passes"),
			datasets:  a.reg.Counter("core.scrub.datasets"),
			droppings: a.reg.Counter("core.scrub.droppings"),
			bytes:     a.reg.Counter("core.scrub.bytes"),
			corrupted: a.reg.Counter("core.scrub.corrupted"),
			missing:   a.reg.Counter("core.scrub.missing"),
		},
	}
}

// Run executes one full scrub pass synchronously.
func (s *Scrubber) Run() (*ScrubReport, error) { return s.run(s.stopCh()) }

// run is one pass gated on an explicit stop channel (nil = uncancellable).
// The channel is captured once per pass: Stop clears the Scrubber's fields
// before closing it, so re-reading them mid-pass would lose the signal.
func (s *Scrubber) run(stop chan struct{}) (*ScrubReport, error) {
	start := time.Now()
	names, err := s.a.Datasets()
	if err != nil {
		return nil, err
	}
	rep := &ScrubReport{}
	var budget int64 // bytes verified since the throttle last slept
	for _, logical := range names {
		res, err := s.a.Fsck(logical)
		if err != nil {
			return nil, fmt.Errorf("core: scrub %s: %w", logical, err)
		}
		rep.Datasets++
		s.sm.datasets.Inc()
		for _, v := range res.Verdicts {
			rep.Droppings++
			s.sm.droppings.Inc()
			switch v.Status {
			case VerdictCorrupt:
				s.sm.corrupted.Inc()
				rep.Corrupt = append(rep.Corrupt, v)
			case VerdictMissing:
				s.sm.missing.Inc()
				rep.Corrupt = append(rep.Corrupt, v)
			}
		}
		if m, err := s.a.Manifest(logical); err == nil {
			for _, sub := range m.Subsets {
				rep.Bytes += sub.Bytes
				s.sm.bytes.Add(sub.Bytes)
				budget += sub.Bytes
			}
		}
		budget = s.throttle(budget, stop)
		if cancelled(stop) {
			break
		}
	}
	rep.Elapsed = time.Since(start)
	s.sm.passes.Inc()
	return rep, nil
}

// throttle sleeps long enough to keep the pass at the configured byte
// rate, returning the remaining (un-slept) budget.
func (s *Scrubber) throttle(budget int64, stop chan struct{}) int64 {
	if s.rate <= 0 || budget <= 0 {
		return 0
	}
	d := time.Duration(float64(budget) / float64(s.rate) * float64(time.Second))
	if d < time.Millisecond {
		return budget // too small to sleep; carry it forward
	}
	select {
	case <-time.After(d):
	case <-stop: // a nil channel never fires, leaving the timer in charge
	}
	return 0
}

func (s *Scrubber) stopCh() chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stop
}

func cancelled(stop chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Start launches repeated scrub passes in the background, sleeping interval
// between passes. Stop cancels the loop.
func (s *Scrubber) Start(interval time.Duration) {
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return // already running
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stop, s.done = stop, done
	s.mu.Unlock()
	go func() {
		defer close(done)
		for {
			s.run(stop) // pass errors are reflected in the metrics only
			select {
			case <-stop:
				return
			case <-time.After(interval):
			}
		}
	}()
}

// Stop cancels a background scrub loop and waits for it to exit.
func (s *Scrubber) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
