package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"xmp/internal/exp"
	"xmp/internal/scenario"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a run with --trace 0 reports.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics a run with --trace 1 reports. Counts come from
// the layers' getters and repeat exactly; times are medians over traced
// passes; shares come from the CPU profile of those passes.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.promoted", "count"},
	{"sim.recycled", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.cpu_share", "fraction"},
	{"sim_per_wall", "s/s"},
	{"netem.enqueued", "count"},
	{"netem.drops", "count"},
	{"netem.marks", "count"},
	{"netem.max_queue", "packets"},
	{"netem.pool_allocs", "count"},
	{"netem.pool_recycles", "count"},
	{"netem.cpu_share", "fraction"},
	{"topo.build_s", "s"},
	{"topo.links", "count"},
	{"transport.cpu_share", "fraction"},
	{"cc.cpu_share", "fraction"},
	{"mptcp.flows_fresh", "count"},
	{"mptcp.flows_recycled", "count"},
	{"core.xmp_onack_ns", "ns"},
	{"cc.lia_onack_ns", "ns"},
	{"cc.olia_onack_ns", "ns"},
	{"cc.amp_onack_ns", "ns"},
	{"cc.dctcp_onack_ns", "ns"},
	{"workload.start_s", "s"},
	{"workload.flows_launched", "count"},
	{"workload.flows_completed", "count"},
	{"workload.cpu_share", "fraction"},
	{"chaos.faults_applied", "count"},
	{"chaos.install_s", "s"},
	{"scenario.compile_s", "s"},
	{"exp.cell_s_max", "s"},
	{"exp.shard_imbalance", "ratio"},
	{"exp.shard_bytes", "bytes"},
	{"exp.merge_s", "s"},
	{"exp.render_s", "s"},
	{"runtime.cpu_share", "fraction"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.mallocs", "count"},
	{"peak_rss_mb", "MB"},
	{"other.cpu_share", "fraction"},
	{"trace.overhead", "fraction"},
}

// passStats is one timed pass.
type passStats struct {
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
}

// record is what a run writes under .bench_build/records: everything
// needed to compare it with another run on the same machine.
type record struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Trace       bool        `json:"trace"`
	BudgetS     float64     `json:"budget_s"`
	Result      result      `json:"result"`
	SetupS      []float64   `json:"setup_s_samples"`
	Timed       []passStats `json:"timed_passes"`
	TracedWallS []float64   `json:"traced_wall_s"`
	// PeakRSSMB is the resident-memory high-water mark after the timed
	// passes.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Counters are the deterministic work counts summed over cells.
	Counters    counters `json:"counters"`
	CanaryDrift []string `json:"canary_drift,omitempty"`
	Errors      []string `json:"errors,omitempty"`
}

type report struct {
	record
	// name identifies the run's record and span files.
	name  string
	order []string
}

func (r *report) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// tally adds one pass of cells to the result, failing the cells in bad.
func (r *report) tally(cells int, bad map[int]bool) {
	r.Result.Attempted += cells
	r.Result.Failed += len(bad)
}

func (r *report) set(name string, v float64) {
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if d.name == name {
			r.Result.Metrics[name] = metric{Value: v, Unit: d.unit}
			r.order = append(r.order, name)
			return
		}
	}
	panic("xmpbench: unknown metric " + name)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's resident-memory high-water mark (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// setupSamples and setupSeconds bound the repeated set-up: at least the
// first, until at least the second has elapsed.
const (
	setupSamples = 9
	setupSeconds = 0.3
)

// run executes one benchmark run and reports on out as it goes.
func run(o options, out io.Writer) (*report, error) {
	fp, err := takeFingerprint()
	if err != nil {
		return nil, err
	}
	rep := &report{record: record{
		Fingerprint: fp, Workload: o.w.Name, Seed: o.seed, Trace: o.traced, BudgetS: o.budget.Seconds(),
		Result: result{Metrics: map[string]metric{}},
	}}
	rep.name = fmt.Sprintf("%s-seed%d-trace%v-%d", o.w.Name, o.seed, o.traced, o.started.UnixNano())
	fmt.Fprintf(out, "xmpbench %s seed=%d trace=%v | %s %s/%s GOMAXPROCS=%d nproc=%d | %s | commit %s dirty=%v source %s\n",
		o.w.Name, o.seed, o.traced, fp.GoVersion, fp.GOOS, fp.GOARCH, fp.GOMAXPROCS, fp.NumCPU, fp.CPUModel,
		fp.GitCommit, fp.GitDirty, fp.SourceDigest)

	// Set-up, repeated so its median is steady.
	var c *scenario.Compiled
	setupStart := time.Now()
	for len(rep.SetupS) < setupSamples || time.Since(setupStart).Seconds() < setupSeconds {
		t0 := time.Now()
		cs, err := compileSpec(o.w, o.specSeed())
		if err != nil {
			return nil, fmt.Errorf("set-up: %v", err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
		c = cs
	}
	labels, err := rowLabels(c)
	if err != nil {
		return nil, err
	}
	cells := c.Cells()
	golden := o.specSeed() == defaultSeed
	var k checker
	if golden {
		ref, err := os.ReadFile(o.w.Golden)
		if err != nil {
			return nil, fmt.Errorf("reference: %v", err)
		}
		k = checker{ref: stripTrailer(string(ref)), labels: labels, rows: o.w.Rows}
	}

	// Timed passes: the public campaign path, untraced.
	var timed pass
	start := time.Now()
	for {
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0, t0 := cpuSeconds(), time.Now()
		p := runCampaign(c, o.w.Shards)
		if len(rep.Timed) == 0 && !golden {
			// Off the default seed there is no golden: later passes, the
			// traced replay and later runs must repeat this output.
			k = checker{ref: stripTrailer(string(p.Output)), labels: labels}
		}
		bad := checkPass(p, k)
		wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
		runtime.ReadMemStats(&ms1)
		rep.tally(cells, bad)
		rep.noteFailures("timed pass", p, bad, labels)
		rep.Timed = append(rep.Timed, passStats{WallS: wall, CPUS: cpu, AllocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)})
		if len(rep.Timed) == 1 {
			timed = p
		}
		if o.traced || time.Since(start).Seconds()+wall > o.budget.Seconds() {
			break
		}
	}
	rep.PeakRSSMB = peakRSSMB()

	// Traced passes: the same cells rebuilt under spans and counters. A
	// run with --trace 0 makes one, for the simulated time and the
	// determinism canary; a run with --trace 1 profiles as many as fit.
	if timed.Merged == nil {
		rep.fail("no traced replay: the timed pass produced no result")
	} else if err := rep.traced(o, timed, labels, start, out); err != nil {
		return nil, err
	}

	if !o.traced {
		rep.set("wall_s", rep.wall())
		rep.set("cpu_s", median(column(rep.Timed, func(p passStats) float64 { return p.CPUS })))
		rep.set("setup_s", median(rep.SetupS))
		rep.set("alloc_mb", median(column(rep.Timed, func(p passStats) float64 { return p.AllocMB })))
	}
	rep.Result.Correct = rep.Result.Failed == 0 && len(rep.Errors) == 0
	for _, e := range rep.Errors {
		fmt.Fprintf(out, "FAIL: %s\n", e)
	}
	for _, d := range rep.CanaryDrift {
		fmt.Fprintf(out, "canary drift from xmpbench/canary.json: %s\n", d)
	}
	fmt.Fprintf(out, "cells attempted %d, failed %d (fail_ratio %.4g); %d timed passes, %d traced\n",
		rep.Result.Attempted, rep.Result.Failed, float64(rep.Result.Failed)/float64(rep.Result.Attempted),
		len(rep.Timed), len(rep.TracedWallS))
	if err := rep.write(); err != nil {
		return nil, err
	}
	return rep, nil
}

// wall is the median wall time of the timed passes.
func (r *report) wall() float64 {
	return median(column(r.Timed, func(p passStats) float64 { return p.WallS }))
}

func column[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// checkPass returns the cells of a pass that failed: those that errored or
// panicked, else those whose rows differ from the reference.
func checkPass(p pass, k checker) map[int]bool {
	bad := maps.Clone(p.Failed)
	if len(bad) == 0 {
		for _, c := range k.failedCells(p.Output) {
			bad[c] = true
		}
	}
	return bad
}

func (r *report) noteFailures(what string, p pass, bad map[int]bool, labels []string) {
	for _, e := range p.Errs {
		r.fail("%s: %s", what, e)
	}
	if len(p.Errs) > 0 || len(bad) == 0 {
		return
	}
	var names []string
	for c := range bad {
		names = append(names, labels[c])
	}
	sort.Strings(names)
	r.fail("%s: cells %v rendered rows that differ from the reference", what, names)
}

// cellData returns each cell's encoded payload from a set of shard blobs.
func cellData(blobs []exp.ShardBlob) (map[int]json.RawMessage, error) {
	out := map[int]json.RawMessage{}
	for _, b := range blobs {
		var f struct {
			Cells []struct {
				Cell int             `json:"cell"`
				Data json.RawMessage `json:"data"`
			} `json:"cells"`
		}
		if err := json.Unmarshal(b.Data, &f); err != nil {
			return nil, fmt.Errorf("%s: %v", b.Name, err)
		}
		for _, c := range f.Cells {
			out[c.Cell] = c.Data
		}
	}
	return out, nil
}

// runtimeStats reads the runtime's GC and allocation totals.
func runtimeStats() (gcCycles, mallocs uint64, gcCPU float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[0].Value.Float64()
	}
	return uint64(ms.NumGC), ms.Mallocs, gcCPU
}

// traced runs the traced passes, checks each against the timed pass and
// the determinism canary, and sets the per-layer metrics.
func (r *report) traced(o options, timed pass, labels []string, start time.Time, out io.Writer) error {
	refCells, err := cellData(timed.Blobs)
	if err != nil {
		return err
	}
	digest := r.Fingerprint.SourceDigest
	canary, err := loadCanary(o, digest, len(labels))
	if err != nil {
		return err
	}
	var prof bytes.Buffer
	if o.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		defer pprof.StopCPUProfile() // a no-op once stopped below
	}
	perPass := map[string][]float64{}
	var spans [][]span
	for {
		runtime.GC()
		gc0, m0, gcCPU0 := runtimeStats()
		tr := newTracer()
		t0 := time.Now()
		p, ctrs, err := tracedPass(tr, o.w, o.specSeed(), timed.Merged)
		if err != nil {
			return err
		}
		wall := time.Since(t0).Seconds()
		gc1, m1, gcCPU1 := runtimeStats()
		r.TracedWallS = append(r.TracedWallS, wall)
		spans = append(spans, tr.spans)

		// The replay must reproduce every timed cell exactly, and its
		// counters must repeat those of every earlier replay of this seed
		// and source tree.
		bad := maps.Clone(p.Failed)
		got, err := cellData(p.Blobs)
		if err != nil {
			return err
		}
		for i := range labels {
			if !bad[i] && !bytes.Equal(got[i], refCells[i]) {
				bad[i] = true
			}
		}
		if len(bad) == 0 && !bytes.Equal(p.Output, timed.Output) {
			r.fail("traced pass: rendered output differs from the timed pass")
		}
		if canary == nil && len(bad) == 0 {
			canary = ctrs
			if err := writeJSON(canaryPath(o, digest), ctrs); err != nil {
				return err
			}
		}
		for i := range labels {
			if bad[i] || canary == nil {
				continue
			}
			if diff := counterDiff(canary[i], ctrs[i]); diff != "" {
				bad[i] = true
				r.fail("determinism canary: cell %s changed counters on a repeat of this seed: %s", labels[i], diff)
			}
		}
		r.tally(len(labels), bad)
		r.noteFailures("traced pass", p, bad, labels)
		if len(r.TracedWallS) == 1 {
			r.Counters = counters{}
			for _, k := range ctrs {
				r.Counters.add(k)
			}
		}

		events := float64(r.Counters["sim.events"])
		for name, v := range map[string]float64{
			"topo.build_s":        tr.total("topo.build"),
			"workload.start_s":    tr.total("workload.start"),
			"chaos.install_s":     tr.total("chaos.install"),
			"scenario.compile_s":  tr.total("scenario.compile"),
			"exp.cell_s_max":      tr.max("exp.cell"),
			"exp.shard_imbalance": tr.max("exp.shard") / tr.min("exp.shard"),
			"exp.merge_s":         tr.total("exp.merge"),
			"exp.render_s":        tr.total("exp.render"),
			"sim.events_per_s":    events / tr.total("sim.run"),
			"runtime.gc_cycles":   float64(gc1 - gc0),
			"runtime.mallocs":     float64(m1 - m0),
			"runtime.gc_cpu_s":    gcCPU1 - gcCPU0,
		} {
			perPass[name] = append(perPass[name], v)
		}
		var bytesOut float64
		for _, b := range p.Blobs {
			bytesOut += float64(len(b.Data))
		}
		perPass["exp.shard_bytes"] = append(perPass["exp.shard_bytes"], bytesOut)
		if !o.traced || time.Since(start).Seconds()+wall > o.budget.Seconds() {
			break
		}
	}
	if err := writeJSON(filepath.Join(buildDir, "spans", r.name+".json"), spans); err != nil {
		return err
	}
	r.CanaryDrift = referenceDrift(o, r.Counters)
	if !o.traced {
		return nil
	}
	pprof.StopCPUProfile()
	pr, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	shares := pr.layerShares()
	ns := onAckNs()
	for _, d := range perLayer {
		name := d.name
		layer, isShare := strings.CutSuffix(name, ".cpu_share")
		switch {
		case name == "trace.overhead":
			r.set(name, median(r.TracedWallS)/r.wall()-1)
		case name == "peak_rss_mb":
			r.set(name, r.PeakRSSMB)
		case name == "sim_per_wall":
			r.set(name, float64(r.Counters["sim.simulated_ns"])/1e9/r.wall())
		case isShare:
			r.set(name, shares[layer])
		case perPass[name] != nil:
			r.set(name, median(perPass[name]))
		case ns[name] != 0:
			r.set(name, ns[name])
		default:
			v, ok := r.Counters[name]
			if !ok {
				return fmt.Errorf("no source for metric %s", name)
			}
			r.set(name, float64(v))
		}
	}
	fmt.Fprintf(out, "profile: %d samples over %d traced passes\n", len(pr.samples), len(r.TracedWallS))
	return nil
}

// counterDiff describes how got differs from want, or returns "".
func counterDiff(want, got counters) string {
	var diffs []string
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			diffs = append(diffs, fmt.Sprintf("%s %d -> %d", k, want[k], got[k]))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, "new counter "+k)
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	return fmt.Sprint(diffs)
}

// canaryPath is where the per-cell counters of one workload and seed are
// kept for the run's source tree: every later run of the same pair must
// repeat them exactly.
func canaryPath(o options, digest string) string {
	return filepath.Join(buildDir, "canary", digest, fmt.Sprintf("%s-seed%d.json", o.w.Name, o.specSeed()))
}

func loadCanary(o options, digest string, cells int) ([]counters, error) {
	data, err := os.ReadFile(canaryPath(o, digest))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ctrs []counters
	if err := json.Unmarshal(data, &ctrs); err != nil || len(ctrs) != cells {
		return nil, fmt.Errorf("%s: unreadable canary (%v); delete it to start a new set", canaryPath(o, digest), err)
	}
	return ctrs, nil
}

// referenceDrift compares the default seed's counters with those recorded
// in xmpbench/canary.json. Drift is reported, not failed: a change that
// alters a counter on purpose records the new value there and says why.
func referenceDrift(o options, got counters) []string {
	if o.specSeed() != defaultSeed {
		return nil
	}
	data, err := os.ReadFile("xmpbench/canary.json")
	if err != nil {
		return []string{err.Error()}
	}
	var ref map[string]counters
	if err := json.Unmarshal(data, &ref); err != nil {
		return []string{"xmpbench/canary.json: " + err.Error()}
	}
	want, ok := ref[o.w.Name]
	if !ok {
		return []string{"no entry for " + o.w.Name}
	}
	if d := counterDiff(want, got); d != "" {
		return []string{d}
	}
	return nil
}

func (r *report) write() error {
	return writeJSON(filepath.Join(buildDir, "records", r.name+".json"), r.record)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
