package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// resultSet is what --runs N --out writes: every run of every workload.
type resultSet struct {
	Runs []*result `json:"runs"`
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &set, nil
}

// values returns one metric's readings over a workload's untraced runs.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, v.Value)
		}
	}
	return out
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the driver measures spread with; it needs two values at least.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	at := func(i int) float64 {
		j := i * (len(s) + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median,
// the measure the driver applies to ten runs.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// verdict applies the choosing-metrics rules to one metric on one
// workload. b regressed if its median is worse than a's by more than the
// bound. If either side's own spread is wider than the bound the pair is
// unresolved, not unchanged — unless every run of b reads better than
// every run of a.
func verdict(def metricDef, a, b []float64) string {
	worse := func(x, than float64) bool {
		if def.Better == "higher" {
			return x < than
		}
		return x > than
	}
	ma, mb := median(a), median(b)
	change := ratio(mb-ma, ma)
	if def.Better == "higher" {
		change = -change
	}
	if spread(a) > def.Bound || spread(b) > def.Bound {
		sa, sb := sorted(a), sorted(b)
		worstB, bestA := sb[len(sb)-1], sa[0]
		if def.Better == "higher" {
			worstB, bestA = sb[0], sa[len(sa)-1]
		}
		if !worse(worstB, bestA) && worstB != bestA {
			return "ok"
		}
		return "unresolved"
	}
	if change > def.Bound {
		return "regressed"
	}
	return "ok"
}

// compareMain prints, for every end-to-end metric on every workload, each
// side's median and quartiles, the bound and the verdict. It exits 1 if
// anything regressed or is unresolved, 2 if the sets cannot be compared.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: e2e compare A.json B.json")
		return 2
	}
	a, err := readSet(args[0])
	if err == nil {
		var b *resultSet
		if b, err = readSet(args[1]); err == nil {
			return compareSets(a, b, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "e2e compare: %v\n", err)
	return 2
}

func compareSets(a, b *resultSet, stdout, stderr io.Writer) int {
	ha, hb := a.Runs[0].Host, b.Runs[0].Host
	if ha.CPUs != hb.CPUs || ha.GOMAXPROCS != hb.GOMAXPROCS {
		fmt.Fprintf(stderr, "e2e compare: hosts differ (cpus %d vs %d, GOMAXPROCS %d vs %d): not comparable\n",
			ha.CPUs, hb.CPUs, ha.GOMAXPROCS, hb.GOMAXPROCS)
		return 2
	}
	fmt.Fprintf(stdout, "A: commit %s, B: commit %s; cpus=%d GOMAXPROCS=%d\n", ha.Commit, hb.Commit, ha.CPUs, ha.GOMAXPROCS)
	fmt.Fprintf(stdout, "%-15s %-28s %5s  %-34s %-34s %7s %6s  %s\n",
		"workload", "metric", "n", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	code := 0
	for _, m := range workloads {
		for _, def := range endToEnd {
			va, vb := a.values(m.name, def.Name), b.values(m.name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(def, va, vb)
			if v != "ok" {
				code = 1
			}
			side := func(xs []float64) string {
				if len(xs) < 2 {
					return fmt.Sprintf("%.5g", median(xs))
				}
				q1, q3 := quartiles(xs)
				return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
			}
			fmt.Fprintf(stdout, "%-15s %-28s %2d/%-2d  %-34s %-34s %+6.1f%% %5.0f%%  %s\n",
				m.name, def.Name, len(va), len(vb), side(va), side(vb),
				100*ratio(median(vb)-median(va), median(va)), 100*def.Bound, v)
		}
	}
	for _, set := range []*resultSet{a, b} {
		for _, r := range set.Runs {
			if !r.Correct {
				fmt.Fprintf(stdout, "%s seed %d: %d of %d operations failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	return code
}
