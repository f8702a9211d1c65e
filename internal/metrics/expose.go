package metrics

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteText renders the registry in a line-oriented, greppable text form:
//
//	counter rpc.server.requests 42
//	gauge   ingest.progress_frames 300
//	hist    fs.node.write.ns count=10 sum=1234 min=80 max=400 p50=100 p95=380 p99=400
//	span    ingest.total start=1722870000000000000 dur_ns=52000000
//
// Lines are sorted by kind then name so diffs between scrapes are stable.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	for _, k := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", k, s.Counters[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "gauge %s %d\n", k, s.Gauges[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		if _, err := fmt.Fprintf(w, "hist %s count=%d sum=%d min=%d max=%d p50=%d p95=%d p99=%d\n",
			k, h.Count, h.Sum, h.Min, h.Max, h.P50, h.P95, h.P99); err != nil {
			return err
		}
	}
	for _, sp := range s.Spans {
		if _, err := fmt.Fprintf(w, "span %s start=%d dur_ns=%d\n",
			sp.Name, sp.StartUnix, sp.DurNanos); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the Snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
