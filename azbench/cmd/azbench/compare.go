package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// runSet holds one side's results: workload/trace → metric → values, one
// per run.
type runSet map[string]map[string][]float64

// readRuns parses a file of concatenated benchmark outputs, pairing each
// run record line with the result line that follows it.
func readRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	var cur *runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var rec struct {
			Run     *runRecord       `json:"run"`
			Metrics map[string]value `json:"metrics"`
		}
		if json.Unmarshal(line, &rec) != nil {
			continue
		}
		switch {
		case rec.Run != nil:
			cur = rec.Run
		case rec.Metrics != nil && cur != nil:
			key := fmt.Sprintf("%s trace=%d", cur.Workload, cur.Trace)
			if set[key] == nil {
				set[key] = map[string][]float64{}
			}
			for _, m := range []map[string]value{rec.Metrics, cur.Detail} {
				for name, v := range m {
					set[key][name] = append(set[key][name], v.Value)
				}
			}
			cur = nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return set, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) (exclusive method) computes them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// compare prints, per workload and metric, each side's median and
// quartiles and the change in median. An end-to-end metric is unresolved
// when either side's quartile spread exceeds its bound, and worse when the
// change's median is worse than the parent's by more than the bound.
func compare(w io.Writer, parentPath, changePath string) error {
	parent, err := readRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	defs := map[string]metricDef{}
	for _, m := range append(endToEnd, perLayer...) {
		defs[m.name] = m
	}
	keys := make([]string, 0, len(parent))
	for k := range parent {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		pm, cm := parent[key], change[key]
		if cm == nil {
			fmt.Fprintf(w, "%s: no change results\n", key)
			continue
		}
		fmt.Fprintf(w, "%s (parent %d runs, change %d runs)\n", key, len(pm["failed_frac"]), len(cm["failed_frac"]))
		fmt.Fprintf(w, "  %-34s %-10s %30s %30s %9s  %s\n", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "delta", "status")
		names := make([]string, 0, len(pm))
		for n := range pm {
			if cm[n] != nil {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		var moved []string
		for _, n := range names {
			p1, p2, p3 := quartiles(pm[n])
			c1, c2, c3 := quartiles(cm[n])
			delta := 0.0
			if p2 != 0 {
				delta = c2/p2 - 1
			}
			status := ""
			if d, ok := defs[n]; ok && d.bound > 0 {
				worse := delta
				if d.better == "higher" {
					worse = -delta
				}
				switch {
				case spread(p1, p2, p3) > d.bound || spread(c1, c2, c3) > d.bound:
					status = "unresolved"
				case worse > d.bound:
					status = "worse"
				default:
					status = "ok"
				}
			} else if _, ok := defs[n]; ok && delta != 0 {
				moved = append(moved, fmt.Sprintf("%s %+.0f%%", n, 100*delta))
			}
			fmt.Fprintf(w, "  %-34s %-10s %30s %30s %+8.1f%%  %s\n", n, unitOf(n),
				fmt.Sprintf("%.4g [%.4g, %.4g]", p2, p1, p3), fmt.Sprintf("%.4g [%.4g, %.4g]", c2, c1, c3), 100*delta, status)
		}
		if len(moved) > 0 {
			fmt.Fprintf(w, "  per-layer deltas: %s\n", strings.Join(moved, ", "))
		}
	}
	return nil
}

// spread is the quartile distance as a share of the median.
func spread(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
