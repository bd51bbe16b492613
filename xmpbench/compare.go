package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// runCompare prints, per workload and end-to-end metric, the medians of
// two sets of run records (directories of .bench_build/records files) and
// their ratio. It refuses, with exit code 2, sets measured on machines
// whose fingerprints differ: those numbers are not comparable.
func runCompare(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: xmpbench compare SET_A SET_B (directories of run records)")
		return 2
	}
	var sets [2][]record
	for i, dir := range args {
		recs, err := loadRecords(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmpbench compare: %v\n", err)
			return 2
		}
		sets[i] = recs
	}
	if err := sameMachine(append(append([]record(nil), sets[0]...), sets[1]...)); err != nil {
		fmt.Fprintf(os.Stderr, "xmpbench compare: refused: %v\n", err)
		return 2
	}
	fmt.Fprintf(out, "%-20s %-14s %14s %14s %9s\n", "workload", "metric", "median A", "median B", "B/A")
	for _, w := range workloadNames() {
		for _, d := range endToEnd {
			a, b := metricValues(sets[0], w, d.name), metricValues(sets[1], w, d.name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			fmt.Fprintf(out, "%-20s %-14s %14.6g %14.6g %9.4f  (%d vs %d runs, %s)\n", w, d.name, ma, mb, mb/ma, len(a), len(b), d.unit)
		}
	}
	return 0
}

func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no run records", dir)
	}
	sort.Strings(paths)
	var recs []record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %v", p, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// sameMachine returns an error naming the first record whose machine
// fingerprint differs from the first record's.
func sameMachine(recs []record) error {
	for _, r := range recs[1:] {
		if a, b := recs[0].Fingerprint.machine(), r.Fingerprint.machine(); a != b {
			return fmt.Errorf("machine fingerprints differ: %+v vs %+v", a, b)
		}
	}
	return nil
}

// metricValues collects a metric from the correct untraced runs of a
// workload.
func metricValues(recs []record, workload, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload && !r.Trace && r.Result.Correct {
			out = append(out, m.Value)
		}
	}
	return out
}
