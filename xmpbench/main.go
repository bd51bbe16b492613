// Command xmpbench is the repository's benchmark. One run executes one of
// three fixed campaign workloads through the public campaign path
// (scenario parse/compile → exp.RunCampaignShard → exp.MergeShardBlobs →
// render), checks the rendered tables against the repository's goldens,
// and prints every metric by name with its unit. With --trace 1 it also
// replays the cells under spans, counters and a CPU profile and reports
// the per-layer numbers instead. README.md lists the workloads and
// metrics.
//
// Run from the repository root:
//
//	bash xmpbench/run.sh --workload fct-shortflow --seed 1 --seconds 20 --trace 0
//	bash xmpbench/run.sh compare SET_A SET_B
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// defaultSeed is the workload seed the goldens were rendered with.
const defaultSeed = 1

// buildDir holds everything a run leaves behind: the binary, the Go build
// cache, run records, span dumps and the per-seed determinism canary.
const buildDir = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("xmpbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: bulk-permutation, fct-shortflow or robustness-sharded")
	seed := fs.Int64("seed", defaultSeed, "workload seed; 0 and 1 reproduce the goldens, any other value overrides scale.seed in memory")
	seconds := fs.Float64("seconds", 20, "measurement budget in seconds (at least one pass always runs)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from a traced, profiled replay")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w := findWorkload(*name)
	switch {
	case w == nil:
		fmt.Fprintf(os.Stderr, "xmpbench: unknown workload %q (have %v)\n", *name, workloadNames())
		os.Exit(2)
	case *seed < 0:
		fmt.Fprintln(os.Stderr, "xmpbench: --seed must be >= 0")
		os.Exit(2)
	case *seconds <= 0:
		fmt.Fprintln(os.Stderr, "xmpbench: --seconds must be > 0")
		os.Exit(2)
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(os.Stderr, "xmpbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o := options{
		w:       w,
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		started: time.Now(),
	}
	rep, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmpbench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, rep); err != nil {
		fmt.Fprintf(os.Stderr, "xmpbench: %v\n", err)
		os.Exit(1)
	}
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

// options is one run's configuration.
type options struct {
	w       *workloadDef
	seed    int64
	budget  time.Duration
	traced  bool
	started time.Time
}

// specSeed is the scale.seed the run's spec resolves to; 0 means the
// default, as every zero scenario knob does.
func (o options) specSeed() int64 {
	if o.seed == 0 {
		return defaultSeed
	}
	return o.seed
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult prints every metric by name and unit, then the result line.
func printResult(w io.Writer, rep *report) error {
	for _, m := range rep.order {
		v := rep.Result.Metrics[m]
		fmt.Fprintf(w, "%-26s %16.6g %s\n", m, v.Value, v.Unit)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
